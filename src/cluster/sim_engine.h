#ifndef CUMULON_CLUSTER_SIM_ENGINE_H_
#define CUMULON_CLUSTER_SIM_ENGINE_H_

#include <memory>

#include "cluster/engine.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cumulon {

class RevocationController;  // cloud/revocation.h; borrowed by the engine

/// Knobs of the cluster simulation. The defaults mirror a 2013 Hadoop
/// deployment: ~1 s task launch overhead and 3-way replication; noise is
/// off.
struct SimEngineOptions {
  /// Fixed per-task overhead (JVM launch, heartbeat scheduling latency).
  double task_startup_seconds = 1.0;

  /// Lognormal sigma of multiplicative task-duration noise; 0 disables
  /// noise, which is what the cost model's predictor uses.
  double noise_sigma = 0.0;

  /// Replication factor of task output writes (first copy to local disk,
  /// the rest over the network), matching the DFS configuration.
  int replication = 3;

  /// Place tasks by their preferred machines, as the real engine does
  /// (PlaceTasks). false places every job round-robin: the locality-off
  /// baseline of ablation A2.
  bool locality_aware = true;

  /// Hadoop-style speculative execution: when a task runs long, a backup
  /// attempt is launched and the earlier finisher wins. Modeled as
  /// completion = min(noisy duration,
  ///                  expected duration + startup + second noisy duration):
  /// the backup starts once the task has overrun its expected duration.
  /// Only meaningful with noise_sigma > 0.
  bool speculative_execution = false;

  /// Probability that one task attempt fails (lost node, bad disk). A
  /// failed attempt wastes its full duration and is retried; after 4
  /// consecutive failures the job fails, as in Hadoop.
  double task_failure_probability = 0.0;

  /// Model a node-local tile cache: the engine owns per-machine cache
  /// instances (sized like the real engine's — machine memory minus the
  /// slots' task working sets) and charges disk/net time only for the
  /// bytes a task's declared cost does NOT expect to find cached
  /// (TaskCost::bytes_read_cached).
  bool enable_tile_cache = false;

  /// Overrides the derived per-machine cache size when > 0.
  int64_t cache_bytes_per_node = 0;

  /// Models the asynchronous tile-prefetch pipeline: the fraction of the
  /// overlappable window — min(cpu, read) — that tasks hide by fetching
  /// split k+1 while computing split k. 0 keeps the historical serial
  /// model (cpu + read); 1 is a perfect pipeline (max(cpu, read)).
  /// Startup and write-back never overlap. See cost/cost_model.h
  /// (PipelinedPhaseSeconds).
  double io_overlap_fraction = 0.0;

  /// Injects a transient-machine fault plan (cloud/revocation.h): machines
  /// the schedule revokes die mid-job at their instant on the controller's
  /// cumulative virtual clock. As in the real engine, a task whose machine
  /// is revoked moves to RevocationController::FallbackMachine before its
  /// attempt starts, or at the kill instant, and reruns on the same lane.
  /// A killed attempt's elapsed time is wasted and counted, the task keeps
  /// its noise/failure multiplier (no extra RNG draws, so seeded runs
  /// replay bit-identically), the node's tile cache is dropped, and a
  /// zero-width "revoke" span plus cluster.revoked.* metrics record the
  /// loss. Borrowed; null (or a controller with an empty schedule) leaves
  /// every schedule decision and RNG draw exactly as before.
  RevocationController* revocation = nullptr;

  /// Records one span per task, stamped from the *virtual clock* (plus the
  /// tracer's running offset), so simulated schedules become inspectable
  /// timelines. Borrowed; falls back to GlobalTracer() when null.
  Tracer* tracer = nullptr;

  /// Engine-level counters/histograms (engine.* names; see
  /// docs/observability.md). Borrowed; disabled when null.
  MetricsRegistry* metrics = nullptr;

  uint64_t seed = 7;
};

/// Draws the simulated failure/retry outcome of one task: consumes exactly
/// one `rng` draw per decided attempt (a draw below `failure_probability`
/// fails that attempt and forces another) and returns the total number of
/// attempts consumed (>= 1) when one succeeds within `max_attempts`, or 0
/// when all `max_attempts` attempts failed — the Hadoop job-kill boundary.
/// Success after k-1 failures is possible for every k <= max_attempts; the
/// max_attempts-th consecutive failure kills the job. Callers must skip the
/// call entirely when `failure_probability` is 0 so a failure-free
/// configuration consumes no randomness.
int DrawTaskAttempts(Rng* rng, double failure_probability, int max_attempts);

/// Discrete-event simulator of slot-scheduled execution. Task durations
/// are derived from TaskCost and the cluster's machine profile:
///
///   duration = startup
///            + cpu_seconds_ref / machine.cpu_gflops * max(1, slots/cores)
///            + local_bytes  / (disk_bw / slots)
///            + remote_bytes / (net_bw  / slots)
///            + write time (disk for the first copy, net for the rest)
///
/// i.e. slots on the same machine contend for cores, disk and NIC — which
/// is what makes slots-per-machine a real optimization knob (experiment
/// E3). The schedule is the real engine's: each task runs on the machine
/// PlaceTasks gives it, and tasks start in index order on the earliest-free
/// of machines x slots lanes, the real engine's shared FIFO worker pool.
/// A virtual clock advances; nothing executes.
///
/// RunJob is safe to call from concurrent plans: runs serialize on an
/// internal mutex (virtual clocks cannot interleave task-by-task), and a
/// job arriving with a JobSpec::slot_share is simulated on that many of
/// the slots instead of the whole cluster, which is how slot contention
/// between concurrent tenants is modeled.
class SimEngine : public Engine {
 public:
  SimEngine(const ClusterConfig& config, const SimEngineOptions& options);

  Result<JobStats> RunJob(const JobSpec& job) override;

  const ClusterConfig& config() const override { return config_; }
  const SimEngineOptions& options() const { return options_; }

  TileCacheGroup* tile_caches() const override { return caches_.get(); }

  /// Duration of a single task on a machine of this cluster, given whether
  /// its reads are local. Bytes the task expects from the node-local cache
  /// (cost.bytes_read_cached) are served from memory — no disk or net
  /// charge. With io_overlap_fraction > 0 the read phase overlaps compute
  /// per the pipelined cost model; `stall_seconds`, when non-null,
  /// receives the residual (unhidden) read time. Exposed for the cost
  /// model and tests.
  double TaskDuration(const TaskCost& cost, bool local_read,
                      double* stall_seconds = nullptr) const;

 private:
  ClusterConfig config_;
  SimEngineOptions options_;
  Mutex run_mu_{"SimEngine::run_mu_"};  // serializes RunJob (tracer offset)
  Rng rng_ CUMULON_GUARDED_BY(run_mu_);
  std::unique_ptr<TileCacheGroup> caches_;
};

}  // namespace cumulon

#endif  // CUMULON_CLUSTER_SIM_ENGINE_H_
