#ifndef CUMULON_OPT_PREDICTOR_H_
#define CUMULON_OPT_PREDICTOR_H_

#include <vector>

#include "cloud/machine.h"
#include "cluster/cluster_config.h"
#include "cluster/sim_engine.h"
#include "common/result.h"
#include "cost/cost_model.h"
#include "exec/executor.h"
#include "lang/lowering.h"
#include "sched/workload_manager.h"

namespace cumulon {

/// A program plus the shapes of its input matrices — everything the
/// optimizer needs to cost it without touching data.
struct ProgramSpec {
  Program program;
  std::vector<TiledMatrix> inputs;
};

/// Predicted execution of a program on a candidate deployment.
struct PredictionResult {
  double seconds = 0.0;
  double dollars = 0.0;
  PlanStats stats;
};

/// Everything about *how* to run, minus the cluster itself.
struct PredictorOptions {
  TileOpCostModel cost;
  LoweringOptions lowering;
  SimEngineOptions sim;
  double job_startup_seconds = 3.0;
  BillingPolicy billing;
  int dfs_replication = 3;
  uint64_t seed = 11;

  /// Tune each multiply's split parameters for the candidate cluster (via
  /// opt/job_tuner.h) instead of using lowering.mm_params / the default.
  /// Overrides lowering.mm_params when set.
  bool tune_mm_per_job = false;

  /// Fraction of the overlappable I/O window the target deployment's
  /// prefetch pipeline hides (SimEngineOptions::io_overlap_fraction;
  /// overrides sim.io_overlap_fraction when >= 0). Applied to both the
  /// prediction run and the tuner's probe simulations, so split choices
  /// reflect the pipelined regime: with overlap, IO-heavier splits stop
  /// being penalized for read time that compute hides. < 0 = keep
  /// sim.io_overlap_fraction as given.
  double prefetch_overlap_fraction = -1.0;

  /// Per-node memory budget of the target deployment (bytes; <= 0 =
  /// unbudgeted). The prediction's declared task costs then include the
  /// out-of-core streaming term (cost/cost_model.h StreamingRefetchBytes):
  /// tasks whose working set exceeds their pin share of the budget are
  /// charged the panel re-reads a streamed run would do, so predicted
  /// times show the stream-vs-resident crossover as the budget shrinks.
  int64_t memory_budget_bytes = 0;

  /// Records the simulated schedule as per-job/per-task spans on the
  /// virtual clock (the trace's total span equals the predicted time).
  /// Wired into both the sim engine and the executor; the tuner's probe
  /// simulations never trace. Borrowed; off when null.
  Tracer* tracer = nullptr;

  /// Destination of the dfs.*/engine.*/exec.* metrics of the prediction
  /// run. Borrowed; off when null (the executor then counts into a
  /// registry of its own, which still backs PlanStats::metrics).
  MetricsRegistry* metrics = nullptr;
};

/// Predicts the wall time and dollar cost of running `spec` on `cluster`:
/// registers the inputs' tile placement in a fresh simulated DFS, lowers
/// the program, and simulates its jobs — the paper's
/// benchmark-model-simulate pipeline as one call. Deterministic for a
/// fixed seed.
Result<PredictionResult> PredictProgram(const ProgramSpec& spec,
                                        const ClusterConfig& cluster,
                                        const PredictorOptions& options);

/// Registers `spec.inputs`' tile metadata into `store` (the placement a
/// load step would have left behind) and lowers the program against those
/// bindings. This is PredictProgram's front half, exposed so callers can
/// obtain the executable plan itself — e.g. to Submit it to a
/// WorkloadManager running against a shared store.
Result<LoweredProgram> PrepareProgram(const ProgramSpec& spec,
                                      TileStore* store,
                                      const LoweringOptions& lowering);

/// The predictor repackaged for WorkloadManager admission control: one
/// PredictProgram run with per-job tuning, tracing, and metrics forced off,
/// so concurrent Submit calls stay cheap and side-effect free.
Result<AdmissionEstimate> EstimateForAdmission(const ProgramSpec& spec,
                                               const ClusterConfig& cluster,
                                               const PredictorOptions& options);

}  // namespace cumulon

#endif  // CUMULON_OPT_PREDICTOR_H_
