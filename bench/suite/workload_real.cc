// Real-engine workloads: a paper program compiled (OptimizeProgram, Lower)
// and run by the thread-pool engine on 2 machines x 2 slots = 4 workers,
// one per host core.
//
//  - rsvd-mem: RSVD-1 over a DfsTileStore with no latency, cache, prefetch
//    or checksums. Compute-bound: the kernels and the executor do the work
//    and the DFS only hands out pointers.
//  - rsvd-io: RSVD-1 with a narrow sketch over a DFS with injected read
//    latency and blocking reads: no cache, prefetch, budget or checksums.
//    I/O-bound through the plain read path; A is re-read by every multiply.
//  - gnmf-io: one GNMF iteration over a DFS with injected read latency,
//    checksums, a small node cache, prefetch and a per-node memory budget.
//    I/O-bound: the DFS, tile cache, prefetch and budget do the work.
//
// Each operation recompiles and reruns the same program on the same inputs,
// so every operation does identical work and must produce identical bits.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/suite/suite.h"
#include "cluster/real_engine.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "cost/calibration.h"
#include "dfs/dfs_tile_store.h"
#include "dfs/sim_dfs.h"
#include "exec/executor.h"
#include "lang/interpreter.h"
#include "lang/logical_optimizer.h"
#include "lang/lowering.h"
#include "lang/programs.h"
#include "matrix/tiled_matrix.h"
#include "opt/predictor.h"
#include "svc/loadgen.h"

namespace cumulon::suite {
namespace {

constexpr int kMachines = 2;
constexpr int kSlotsPerMachine = 2;
constexpr int kSlots = kMachines * kSlotsPerMachine;
constexpr double kMiB = 1024.0 * 1024.0;

using DenseOutputs = std::map<std::string, DenseMatrix>;

/// Everything that distinguishes one real workload from the other.
struct RealShape {
  Program program;  // as a user writes it; compiled on every operation
  std::vector<TiledMatrix> inputs;
  FillKind fill = FillKind::kGaussian;
  int64_t tile = 512;
  DfsOptions dfs;
  bool checksums = false;
  int64_t cache_bytes_per_node = 0;  // 0 = no node tile cache
  int prefetch_threads = 0;          // 0 = blocking Gets
  int64_t memory_budget_bytes = 0;   // 0 = unbudgeted

  /// Builds the output check from the stored inputs (untimed, once per
  /// run). The check returns "" when the outputs are right.
  std::function<std::function<std::string(const DenseOutputs&)>(
      TileStore* store, const std::map<std::string, TiledMatrix>& inputs)>
      make_check;
};

/// One set-up: a simulated DFS holding the generated inputs, the engine
/// (whose node caches the store reads through) and an executor.
class RealWorld {
 public:
  RealWorld(const RealShape& shape, uint64_t seed)
      : shape_(shape),
        dfs_(shape.dfs),
        store_(&dfs_, shape.checksums),
        engine_(ClusterConfig{MachineProfile{}, kMachines, kSlotsPerMachine},
                EngineOptions(shape, &metrics_)),
        executor_(&store_, &engine_, &cost_, ExecOptions(shape, &metrics_)) {
    store_.AttachMetrics(&metrics_);
    if (engine_.tile_caches() != nullptr) {
      store_.AttachCaches(engine_.tile_caches());
    }
    if (shape.prefetch_threads > 0) {
      store_.EnablePrefetch(shape.prefetch_threads);
    }
    Rng rng(seed);
    for (const TiledMatrix& input : shape.inputs) {
      const Status st = GenerateMatrix(input, shape.fill, 0.0, &rng, &store_);
      CUMULON_CHECK(st.ok()) << st;
      bindings_.emplace(input.name, input);
    }
  }

  struct Op {
    double start = 0.0;
    double optimized = 0.0;  // timestamps on the NowSeconds() clock
    double lowered = 0.0;
    double done = 0.0;
    Status status;
    PlanStats stats;
    std::map<std::string, TiledMatrix> outputs;

    double seconds() const { return done - start; }
  };

  /// One user-visible operation: compile the program and run it.
  Op Run() {
    Op op;
    op.start = NowSeconds();
    const Program optimized = OptimizeProgram(shape_.program);
    op.optimized = NowSeconds();
    LoweringOptions lowering;
    lowering.tile_dim = shape_.tile;
    auto lowered = Lower(optimized, bindings_, lowering);
    op.lowered = NowSeconds();
    if (!lowered.ok()) {
      op.status = lowered.status();
      op.done = op.lowered;
      return op;
    }
    auto stats = executor_.Run(lowered->plan);
    op.done = NowSeconds();
    if (!stats.ok()) {
      op.status = stats.status();
      return op;
    }
    op.stats = std::move(stats).value();
    op.outputs = std::move(lowered->outputs);
    return op;
  }

  Result<DenseOutputs> LoadOutputs(
      const std::map<std::string, TiledMatrix>& outputs) {
    DenseOutputs dense;
    for (const auto& [name, matrix] : outputs) {
      CUMULON_ASSIGN_OR_RETURN(DenseMatrix m, LoadDense(matrix, &store_));
      dense.emplace(name, std::move(m));
    }
    return dense;
  }

  TileStore* store() { return &store_; }
  const std::map<std::string, TiledMatrix>& inputs() const {
    return bindings_;
  }

 private:
  static RealEngineOptions EngineOptions(const RealShape& shape,
                                         MetricsRegistry* metrics) {
    RealEngineOptions options;
    options.enable_tile_cache = shape.cache_bytes_per_node > 0;
    options.cache_bytes_per_node = shape.cache_bytes_per_node;
    options.metrics = metrics;
    return options;
  }

  static ExecutorOptions ExecOptions(const RealShape& shape,
                                     MetricsRegistry* metrics) {
    ExecutorOptions options;
    options.job_startup_seconds = 0.0;  // real mode never waits it out
    // Without prefetch threads, the default window would issue every read
    // from a hint as a synchronous GetAsync that no stall clock times.
    if (shape.prefetch_threads == 0) options.prefetch_budget_bytes = 0;
    options.memory_budget_bytes = shape.memory_budget_bytes;
    options.metrics = metrics;
    return options;
  }

  const RealShape& shape_;
  MetricsRegistry metrics_;  // outlives the store's cached counter handles
  SimDfs dfs_;
  DfsTileStore store_;
  RealEngine engine_;
  TileOpCostModel cost_;
  Executor executor_;
  std::map<std::string, TiledMatrix> bindings_;
};

/// Matrix-multiply flops of one operation (element-wise work excluded),
/// the numerator of exec.gflops.
double ProgramFlops(const Program& program) {
  double flops = 0.0;
  for (const Assignment& a : OptimizeProgram(program).assignments) {
    flops += MatMulFlops(a.expr);
  }
  return flops;
}

/// M v, or M^T v when `transpose`, reading M tile by tile from the store
/// (no dense copy of a large input).
std::vector<double> TiledMatVec(TileStore* store, const TiledMatrix& m,
                                const std::vector<double>& v,
                                bool transpose) {
  const TileLayout& layout = m.layout;
  std::vector<double> out(transpose ? layout.cols() : layout.rows(), 0.0);
  for (int64_t gr = 0; gr < layout.grid_rows(); ++gr) {
    for (int64_t gc = 0; gc < layout.grid_cols(); ++gc) {
      auto tile = store->Get(m.name, TileId{gr, gc}, 0);
      CUMULON_CHECK(tile.ok()) << tile.status();
      const Tile& t = **tile;
      const int64_t r0 = gr * layout.tile_rows();
      const int64_t c0 = gc * layout.tile_cols();
      for (int64_t r = 0; r < t.rows(); ++r) {
        for (int64_t c = 0; c < t.cols(); ++c) {
          if (transpose) {
            out[c0 + c] += t.At(r, c) * v[r0 + r];
          } else {
            out[r0 + r] += t.At(r, c) * v[c0 + c];
          }
        }
      }
    }
  }
  return out;
}

double Norm(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x * x;
  return std::sqrt(sum);
}

/// RSVD-1's check: for a random probe x, Y x must match A(A^T(A(Omega x))),
/// four matrix-vector products instead of a dense reference product.
std::function<std::string(const DenseOutputs&)> RsvdCheck(
    TileStore* store, const std::map<std::string, TiledMatrix>& inputs) {
  const TiledMatrix& a = inputs.at("A");
  const TiledMatrix& omega = inputs.at("Omega");
  Rng rng(99);
  std::vector<double> x(omega.layout.cols());
  for (double& xi : x) xi = rng.NextGaussian();
  std::vector<double> reference = TiledMatVec(store, omega, x, false);
  reference = TiledMatVec(store, a, reference, false);
  reference = TiledMatVec(store, a, reference, true);
  reference = TiledMatVec(store, a, reference, false);
  return [x, reference](const DenseOutputs& outputs) -> std::string {
    const DenseMatrix& y = outputs.at("Y");
    std::vector<double> yx(y.rows(), 0.0);
    for (int64_t r = 0; r < y.rows(); ++r) {
      for (int64_t c = 0; c < y.cols(); ++c) yx[r] += y.At(r, c) * x[c];
    }
    std::vector<double> diff(yx.size());
    for (size_t i = 0; i < yx.size(); ++i) diff[i] = yx[i] - reference[i];
    const double rel = Norm(diff) / std::max(Norm(reference), 1e-300);
    if (rel <= 1e-8) return "";
    return StrCat("RSVD probe mismatch: |Yx - A(A'(A(Omega x)))| / |ref| = ",
                  rel);
  };
}

/// GNMF's check: the single-node interpreter's result on the same inputs.
std::function<std::string(const DenseOutputs&)> GnmfCheck(
    const Program& program, TileStore* store,
    const std::map<std::string, TiledMatrix>& inputs) {
  DenseOutputs dense;
  for (const auto& [name, matrix] : inputs) {
    auto m = LoadDense(matrix, store);
    CUMULON_CHECK(m.ok()) << m.status();
    dense.emplace(name, std::move(m).value());
  }
  auto reference = EvalProgram(program, dense);
  CUMULON_CHECK(reference.ok()) << reference.status();
  // name -> (reference, allowed max |difference|)
  std::map<std::string, std::pair<DenseMatrix, double>> expected;
  for (const char* name : {"H", "W"}) {
    const DenseMatrix& want = reference->at(name);
    double scale = 1.0;
    for (int64_t r = 0; r < want.rows(); ++r) {
      for (int64_t c = 0; c < want.cols(); ++c) {
        scale = std::max(scale, std::abs(want.At(r, c)));
      }
    }
    expected.emplace(name, std::make_pair(want, 1e-9 * scale));
  }
  return [expected](const DenseOutputs& outputs) -> std::string {
    for (const auto& [name, want] : expected) {
      auto diff = outputs.at(name).MaxAbsDiff(want.first);
      if (!diff.ok() || *diff > want.second) {
        return StrCat("GNMF ", name, " differs from EvalProgram by ",
                      diff.ok() ? *diff : -1.0);
      }
    }
    return "";
  };
}

bool BitIdentical(const DenseOutputs& a, const DenseOutputs& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [name, m] : a) {
    auto it = b.find(name);
    if (it == b.end()) return false;
    auto diff = m.MaxAbsDiff(it->second);
    if (!diff.ok() || *diff != 0.0) return false;
  }
  return true;
}

/// Per-layer totals over the traced operations, from the engine's measured
/// per-job stats and the bench registry's dfs/cache/prefetch counters.
struct LayerTotals {
  int64_t ops = 0;
  int64_t jobs = 0;
  int64_t tasks = 0;
  int64_t nonlocal = 0;
  double run_seconds = 0.0;  // Executor::Run walls
  double task_seconds = 0.0;
  double stall_seconds = 0.0;
  int64_t spill_evictions = 0;
  int64_t spill_refetch_bytes = 0;
  int64_t unpinned_reads = 0;
  int64_t peak_bytes = 0;
  std::map<std::string, int64_t> counters;  // dfs.*, cache.*, prefetch.*
  std::vector<double> skews;                // per job: max / median task
  std::vector<double> run_walls;

  void Add(const RealWorld::Op& op) {
    ++ops;
    const PlanStats& s = op.stats;
    jobs += static_cast<int64_t>(s.jobs.size());
    tasks += s.total_tasks;
    nonlocal += s.non_local_tasks;
    run_seconds += op.done - op.lowered;
    run_walls.push_back(op.done - op.lowered);
    stall_seconds += s.stall_seconds;
    spill_evictions += s.spill_evictions;
    spill_refetch_bytes += s.spill_refetch_bytes;
    unpinned_reads += s.spill_unpinned_reads;
    peak_bytes = std::max(peak_bytes, s.memory_peak_bytes);
    for (const JobRecord& job : s.jobs) {
      task_seconds += job.stats.total_task_seconds;
      std::vector<double> durations;
      for (const TaskRunInfo& run : job.stats.task_runs) {
        durations.push_back(run.duration_seconds);
      }
      const double median = ExactPercentile(durations, 0.5);
      if (median > 0) {
        skews.push_back(*std::max_element(durations.begin(),
                                          durations.end()) /
                        median);
      }
    }
    for (const auto& [name, value] : s.metrics.counters) {
      if (name.rfind("dfs.", 0) == 0 || name.rfind("cache.", 0) == 0 ||
          name.rfind("prefetch.", 0) == 0) {
        counters[name] += value;
      }
    }
  }

  int64_t Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

/// Spans of one traced operation: the operation, its compile steps and its
/// Executor::Run, measured around the calls. Inside Run the program records
/// no bench-visible spans, so the engine's measured per-job accounting is
/// laid out end to end under the run span: each job's makespan splits into
/// task compute spread over the slots (matrix), I/O stall spread over the
/// slots (dfs) and slot time no task used (cluster, its self time). Each
/// span is clipped to its parent, so the layers' self times add up to the
/// operation's wall even where the jobs' makespans add up to slightly more
/// than the measured Run.
void TraceOp(const RealWorld::Op& op, int64_t index, LayerTrace* trace) {
  const int64_t root =
      trace->Add("bench", StrCat("op ", index), op.start, op.done, 0);
  trace->Add("lang", "OptimizeProgram", op.start, op.optimized, root);
  trace->Add("lang", "Lower", op.optimized, op.lowered, root);
  const int64_t run =
      trace->Add("exec", "Executor::Run", op.lowered, op.done, root);
  double cursor = op.lowered;
  for (const JobRecord& job : op.stats.jobs) {
    const JobStats& js = job.stats;
    const double end = std::min(cursor + js.duration_seconds, op.done);
    const int64_t span = trace->Add("cluster", job.name, cursor, end, run);
    const double compute = std::min(
        (js.total_task_seconds - js.stall_seconds) / kSlots, end - cursor);
    const double stall =
        std::min(js.stall_seconds / kSlots, end - cursor - compute);
    trace->Add("matrix", "task compute / slots", cursor, cursor + compute,
               span);
    trace->Add("dfs", "task I/O stall / slots", cursor + compute,
               cursor + compute + stall, span);
    cursor = end;
  }
}

/// Predicted Executor::Run seconds of the workload's plan on a host profile
/// calibrated on this machine, through the same lowering.
Result<double> PredictRunSeconds(const RealShape& shape) {
  CalibrationOptions calibration_options;
  CUMULON_ASSIGN_OR_RETURN(CalibrationResult calibration,
                           Calibrate(calibration_options));
  MachineProfile host = calibration.ToHostProfile(kSlotsPerMachine);
  if (shape.dfs.read_bytes_per_sec > 0) {
    host.disk_mbps = host.net_mbps = shape.dfs.read_bytes_per_sec / 1e6;
  }
  ProgramSpec spec;
  spec.program = OptimizeProgram(shape.program);
  spec.inputs = shape.inputs;
  PredictorOptions options;
  options.cost = calibration.ToCostModel();
  options.lowering.tile_dim = shape.tile;
  options.job_startup_seconds = 0.0;
  options.sim.task_startup_seconds = 0.0;
  options.sim.enable_tile_cache = shape.cache_bytes_per_node > 0;
  options.sim.cache_bytes_per_node = shape.cache_bytes_per_node;
  options.dfs_replication = shape.dfs.replication;
  options.memory_budget_bytes = shape.memory_budget_bytes;
  if (shape.prefetch_threads > 0) options.prefetch_overlap_fraction = 1.0;
  CUMULON_ASSIGN_OR_RETURN(
      PredictionResult prediction,
      PredictProgram(spec, ClusterConfig{host, kMachines, kSlotsPerMachine},
                     options));
  return prediction.seconds;
}

void SetPerLayer(const RealShape& shape, const LayerTotals& t,
                 RunResult* result) {
  const double ops = std::max<double>(t.ops, 1);
  const double run_median = ExactPercentile(t.run_walls, 0.5);
  const double gemm_gflops = ProbeKernels(result);
  const double gflops =
      run_median > 0 ? ProgramFlops(shape.program) / run_median / 1e9 : 0.0;
  const auto n = t.ops;
  result->Set("exec.gflops", gflops, "GFLOP/s", n);
  result->Set("exec.kernel_eff",
              gemm_gflops > 0 ? gflops / (gemm_gflops * kSlots) : 0.0,
              "fraction", n);
  result->Set("exec.jobs", t.jobs / ops, "count/op", n);
  result->Set("exec.tasks", t.tasks / ops, "count/op", n);
  result->Set("exec.stall_frac",
              t.task_seconds > 0 ? t.stall_seconds / t.task_seconds : 0.0,
              "fraction", t.tasks);
  result->Set("exec.slot_idle_frac",
              t.run_seconds > 0
                  ? 1.0 - t.task_seconds / (t.run_seconds * kSlots)
                  : 0.0,
              "fraction", n);
  result->Set("exec.spill_evictions", t.spill_evictions / ops, "count/op", n);
  result->Set("exec.spill_refetch_mb", t.spill_refetch_bytes / kMiB / ops,
              "MiB/op", n);
  result->Set("exec.unpinned_reads", t.unpinned_reads / ops, "count/op", n);
  result->Set("mem.peak_mb", t.peak_bytes / kMiB, "MiB", n);
  result->Set("cluster.task_skew", ExactPercentile(t.skews, 0.5), "ratio",
              static_cast<int64_t>(t.skews.size()));
  result->Set("cluster.nonlocal_frac",
              t.tasks > 0 ? static_cast<double>(t.nonlocal) / t.tasks : 0.0,
              "fraction", t.tasks);
  result->Set("dfs.read_mb", t.Counter("dfs.read.bytes") / kMiB / ops,
              "MiB/op", n);
  result->Set("dfs.write_mb", t.Counter("dfs.write.bytes") / kMiB / ops,
              "MiB/op", n);
  const int64_t lookups = t.Counter("cache.hits") + t.Counter("cache.misses");
  result->Set("cache.hit_frac",
              lookups > 0 ? static_cast<double>(t.Counter("cache.hits")) /
                                lookups
                          : 0.0,
              "fraction", lookups);
  result->Set("prefetch.issued", t.Counter("prefetch.issued") / ops,
              "count/op", n);
  result->Set("prefetch.coalesced", t.Counter("prefetch.coalesced") / ops,
              "count/op", n);

  auto predicted = PredictRunSeconds(shape);
  if (predicted.ok() && run_median > 0) {
    result->Set("cost.pred_err_pct",
                100.0 * std::abs(*predicted - run_median) / run_median, "%",
                n);
    std::printf("model: predicted Run %.3f s vs measured median %.3f s\n",
                *predicted, run_median);
  } else if (!predicted.ok()) {
    result->Fail(StrCat("prediction failed: ", predicted.status().ToString()));
  }
  std::printf("kernel: single-thread Gemm %.2f GFLOP/s; plan %.2f GFLOP/s "
              "= %.3f of %d slots\n",
              gemm_gflops, gflops, result->metrics["exec.kernel_eff"].value,
              kSlots);
}

RunResult RunReal(const std::string& label, const RealShape& shape,
                  const RunConfig& config) {
  RunResult result;
  std::unique_ptr<RealWorld> world;
  // Set-up: generate the inputs into a fresh DFS and engine, then run one
  // warm-up operation.
  const std::vector<double> setups = TimeSetups(
      config,
      [&] {
        world = std::make_unique<RealWorld>(shape, config.seed);
        const RealWorld::Op warm = world->Run();
        CUMULON_CHECK(warm.status.ok()) << "warm-up failed: " << warm.status;
      },
      [&] { world.reset(); });

  // Untimed: the reference every operation's outputs are checked against.
  const auto check = shape.make_check(world->store(), world->inputs());

  std::optional<DenseOutputs> first;
  DenseOutputs last;
  LayerTotals totals;
  LayerTrace trace;
  std::vector<double> latencies;
  double record_seconds = 0.0;

  const double end = NowSeconds() + config.seconds;
  do {
    const RealWorld::Op op = world->Run();
    ++result.attempted;
    if (!op.status.ok()) {
      result.Fail(StrCat("operation failed: ", op.status.ToString()));
      continue;
    }
    latencies.push_back(op.seconds());
    if (config.traced) {
      const double record_start = NowSeconds();
      TraceOp(op, result.attempted, &trace);
      totals.Add(op);
      record_seconds += NowSeconds() - record_start;
    }
    auto outputs = world->LoadOutputs(op.outputs);
    if (!outputs.ok()) {
      result.Fail(StrCat("reading outputs failed: ",
                         outputs.status().ToString()));
      continue;
    }
    const std::string problem = check(*outputs);
    if (!problem.empty()) {
      result.Fail(problem);
      continue;
    }
    if (!first.has_value()) {
      first = std::move(outputs).value();
    } else {
      last = std::move(outputs).value();
    }
  } while (NowSeconds() < end);
  if (first.has_value() && !last.empty() && !BitIdentical(*first, last)) {
    result.Fail("first and last operations are not bit-identical");
  }

  std::printf("%s: %lld operations, median %.3f ms\n", label.c_str(),
              static_cast<long long>(result.attempted),
              ExactPercentile(latencies, 0.5) * 1e3);
  if (!config.traced) {
    SetEndToEnd(setups, latencies, &result);
    return result;
  }
  InitPerLayer(&result);
  SetPerLayer(shape, totals, &result);
  trace.Report(totals.ops, &result);
  SetTraceOverhead(record_seconds, latencies, &result);
  if (!config.trace_path.empty()) {
    const Status st = trace.Write(config.trace_path);
    if (!st.ok()) result.Fail(StrCat("writing trace: ", st.ToString()));
  }
  return result;
}

/// RSVD-1 on a 4096 x 4096 input with an l-column sketch (smoke: 1024 x 512
/// and l / 4), over an in-memory DFS.
RealShape RsvdShape(const RunConfig& config, int64_t l) {
  RsvdSpec spec;
  spec.m = config.smoke ? 1024 : 4096;
  spec.n = config.smoke ? 512 : 4096;
  spec.l = config.smoke ? l / 4 : l;
  RealShape shape;
  shape.program = BuildRsvd1(spec);
  shape.tile = config.smoke ? 256 : 512;
  shape.inputs = {{"A", TileLayout::Square(spec.m, spec.n, shape.tile)},
                  {"Omega", TileLayout::Square(spec.n, spec.l, shape.tile)}};
  shape.fill = FillKind::kGaussian;
  shape.dfs.num_nodes = kMachines;
  shape.dfs.replication = 1;
  shape.dfs.seed = config.seed;
  shape.make_check = RsvdCheck;
  return shape;
}

}  // namespace

RunResult RunRsvdMem(const RunConfig& config) {
  return RunReal("rsvd-mem", RsvdShape(config, 256), config);
}

RunResult RunRsvdIo(const RunConfig& config) {
  // A narrow sketch keeps compute under a fifth of an operation, so the
  // injected reads, not the host's CPU speed, set its latency.
  RealShape shape = RsvdShape(config, 64);
  shape.dfs.read_latency_seconds = 0.002;
  shape.dfs.read_bytes_per_sec = 256.0 * kMiB;
  return RunReal("rsvd-io", shape, config);
}

RunResult RunGnmfIo(const RunConfig& config) {
  GnmfSpec spec;
  spec.m = config.smoke ? 512 : 4096;
  spec.n = config.smoke ? 256 : 2048;
  spec.k = config.smoke ? 16 : 32;
  RealShape shape;
  shape.program = BuildGnmfIteration(spec);
  shape.tile = config.smoke ? 128 : 256;
  shape.inputs = {{"V", TileLayout::Square(spec.m, spec.n, shape.tile)},
                  {"W", TileLayout::Square(spec.m, spec.k, shape.tile)},
                  {"H", TileLayout::Square(spec.k, spec.n, shape.tile)}};
  shape.fill = FillKind::kUniform;  // GNMF needs non-negative data
  shape.dfs.num_nodes = kMachines;
  shape.dfs.replication = 1;
  shape.dfs.seed = config.seed;
  shape.dfs.read_latency_seconds = 0.002;
  shape.dfs.read_bytes_per_sec = 256.0 * kMiB;
  shape.checksums = true;
  shape.cache_bytes_per_node = 16LL << 20;
  shape.prefetch_threads = 4;
  shape.memory_budget_bytes = 48LL << 20;
  const Program program = shape.program;
  shape.make_check = [program](
                         TileStore* store,
                         const std::map<std::string, TiledMatrix>& inputs) {
    return GnmfCheck(program, store, inputs);
  };
  return RunReal("gnmf-io", shape, config);
}

}  // namespace cumulon::suite
