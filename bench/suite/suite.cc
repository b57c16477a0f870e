#include "bench/suite/suite.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "matrix/tile_ops.h"
#include "svc/loadgen.h"

namespace cumulon::suite {

namespace {

const auto kProcessStart = std::chrono::steady_clock::now();

/// name -> unit of every per-layer metric except the <layer>.self_frac
/// family. Per-operation values carry "/op" in their unit.
const std::vector<std::pair<std::string, std::string>>& PerLayerUnits() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"matrix.gemm_gflops", "GFLOP/s"},
      {"matrix.ew_gelems", "Gelem/s"},
      {"exec.gflops", "GFLOP/s"},
      {"exec.kernel_eff", "fraction"},
      {"exec.jobs", "count/op"},
      {"exec.tasks", "count/op"},
      {"exec.stall_frac", "fraction"},
      {"exec.slot_idle_frac", "fraction"},
      {"exec.spill_evictions", "count/op"},
      {"exec.spill_refetch_mb", "MiB/op"},
      {"exec.unpinned_reads", "count/op"},
      {"mem.peak_mb", "MiB"},
      {"cluster.task_skew", "ratio"},
      {"cluster.nonlocal_frac", "fraction"},
      {"cluster.sim_tasks", "count/op"},
      {"dfs.read_mb", "MiB/op"},
      {"dfs.write_mb", "MiB/op"},
      {"cache.hit_frac", "fraction"},
      {"prefetch.issued", "count/op"},
      {"prefetch.coalesced", "count/op"},
      {"cost.pred_err_pct", "%"},
      {"opt.candidates", "count/op"},
      {"svc.admit_drift", "ratio"},
      {"svc.records", "count"},
      {"svc.rpcs_per_plan", "count/op"},
      {"loadgen.late_frac", "fraction"},
      {"obs.trace_overhead_frac", "fraction"},
  };
  return kUnits;
}

/// Layers whose self time the traced runs report as `<layer>.self_frac`.
const std::vector<std::string>& TracedLayers() {
  static const std::vector<std::string> kLayers = {
      "lang", "opt", "exec", "cluster", "matrix", "dfs", "sched", "svc"};
  return kLayers;
}

}  // namespace

void RunResult::Set(const std::string& name, double value,
                    const std::string& unit, int64_t samples) {
  metrics[name] = Metric{value, unit, samples};
}

void RunResult::Fail(const std::string& problem) {
  ++failed;
  problems.push_back(problem);
}

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

double MaxRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<double> TimeSetups(const RunConfig& config,
                               const std::function<void()>& setup,
                               const std::function<void()>& teardown) {
  const bool once = config.smoke || config.traced;
  std::vector<double> seconds;
  double total = 0.0;
  auto more = [&] {
    if (seconds.empty()) return true;
    if (once) return false;
    return seconds.size() < 3 || (total < 1.0 && seconds.size() < 25);
  };
  while (more()) {
    if (!seconds.empty()) teardown();
    const double start = NowSeconds();
    setup();
    seconds.push_back(NowSeconds() - start);
    total += seconds.back();
  }
  return seconds;
}

void SetEndToEnd(const std::vector<double>& setup_seconds,
                 const std::vector<double>& latency_seconds,
                 RunResult* result) {
  const auto n = static_cast<int64_t>(latency_seconds.size());
  result->Set("setup_s", ExactPercentile(setup_seconds, 0.5), "s",
              static_cast<int64_t>(setup_seconds.size()));
  const double p50 = ExactPercentile(latency_seconds, 0.5);
  result->Set("latency_p50_ms", p50 * 1e3, "ms", n);
  result->Set("rss_mb", MaxRssMb(), "MiB", 1);
  std::printf("latency p50 %.3f ms, p90 %.3f ms, max %.3f ms over %lld "
              "operations\n",
              p50 * 1e3, ExactPercentile(latency_seconds, 0.9) * 1e3,
              ExactPercentile(latency_seconds, 1.0) * 1e3,
              static_cast<long long>(n));
}

void InitPerLayer(RunResult* result) {
  for (const auto& [name, unit] : PerLayerUnits()) {
    result->Set(name, 0.0, unit, 0);
  }
  for (const std::string& layer : TracedLayers()) {
    result->Set(layer + ".self_frac", 0.0, "fraction", 0);
  }
}

double ProbeKernels(RunResult* result) {
  constexpr int64_t kDim = 512;
  Rng rng(5);
  Tile a(kDim, kDim), b(kDim, kDim), c(kDim, kDim);
  FillGaussian(&a, &rng);
  FillGaussian(&b, &rng);

  constexpr int kGemmReps = 15;
  std::vector<double> gemm_seconds;
  for (int i = 0; i < kGemmReps; ++i) {
    const double start = NowSeconds();
    CUMULON_CHECK(Gemm(a, b, 1.0, 0.0, &c).ok());
    gemm_seconds.push_back(NowSeconds() - start);
  }
  const double gemm_gflops =
      2.0 * kDim * kDim * kDim / ExactPercentile(gemm_seconds, 0.5) / 1e9;

  constexpr int kEwReps = 200;
  std::vector<double> ew_seconds;
  for (int i = 0; i < kEwReps; ++i) {
    const double start = NowSeconds();
    CUMULON_CHECK(EwBinary(BinaryOp::kMul, a, b, &c).ok());
    ew_seconds.push_back(NowSeconds() - start);
  }
  const double ew_gelems =
      static_cast<double>(kDim * kDim) / ExactPercentile(ew_seconds, 0.5) / 1e9;

  result->Set("matrix.gemm_gflops", gemm_gflops, "GFLOP/s", kGemmReps);
  result->Set("matrix.ew_gelems", ew_gelems, "Gelem/s", kEwReps);
  return gemm_gflops;
}

int64_t LayerTrace::Add(const std::string& layer, const std::string& name,
                        double start, double end, int64_t parent, int lane) {
  TraceSpan span;
  span.parent_id = parent > 0 ? parent : -1;
  span.name = name;
  span.category = layer;
  span.machine = -1;
  span.slot = lane;
  span.start_seconds = start;
  span.duration_seconds = std::max(end - start, 0.0);
  return tracer_.AddSpan(std::move(span));
}

std::map<std::string, double> LayerTrace::SelfSeconds() const {
  const std::vector<TraceSpan> spans = tracer_.spans();
  std::map<int64_t, std::vector<const TraceSpan*>> children;
  for (const TraceSpan& span : spans) {
    if (span.parent_id > 0) children[span.parent_id].push_back(&span);
  }
  std::map<std::string, double> self;
  for (const TraceSpan& span : spans) {
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<double, double>> covered;
    auto it = children.find(span.id);
    if (it != children.end()) {
      for (const TraceSpan* child : it->second) {
        const double lo = std::max(child->start_seconds, span.start_seconds);
        const double hi = std::min(child->end_seconds(), span.end_seconds());
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    double covered_seconds = 0.0;
    double reach = span.start_seconds;
    for (const auto& [lo, hi] : covered) {
      if (hi <= reach) continue;
      covered_seconds += hi - std::max(lo, reach);
      reach = hi;
    }
    self[span.category] +=
        std::max(span.duration_seconds - covered_seconds, 0.0);
  }
  return self;
}

double LayerTrace::RootSeconds() const {
  double total = 0.0;
  for (const TraceSpan& span : tracer_.spans()) {
    if (span.parent_id <= 0) total += span.duration_seconds;
  }
  return total;
}

void LayerTrace::Report(int64_t ops, RunResult* result) const {
  const std::map<std::string, double> self = SelfSeconds();
  const double root = RootSeconds();
  const int64_t spans = tracer_.span_count();
  auto self_of = [&self](const std::string& layer) {
    auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second;
  };
  std::printf("self time by layer over %lld operations (%lld spans):\n",
              static_cast<long long>(ops), static_cast<long long>(spans));
  std::printf("  %-8s %12s %8s\n", "layer", "ms/op", "share");
  for (const auto& [layer, seconds] : self) {
    std::printf("  %-8s %12.3f %7.1f%%\n", layer.c_str(),
                ops > 0 ? seconds * 1e3 / ops : 0.0,
                root > 0 ? 100.0 * seconds / root : 0.0);
  }
  for (const std::string& layer : TracedLayers()) {
    result->Set(layer + ".self_frac",
                root > 0 ? self_of(layer) / root : 0.0, "fraction", spans);
  }
}

void SetTraceOverhead(double record_seconds,
                      const std::vector<double>& latency_seconds,
                      RunResult* result) {
  const auto n = static_cast<int64_t>(latency_seconds.size());
  const double per_op = n > 0 ? record_seconds / n : 0.0;
  const double median = ExactPercentile(latency_seconds, 0.5);
  result->Set("obs.trace_overhead_frac", median > 0 ? per_op / median : 0.0,
              "fraction", n);
  std::printf("trace overhead: %.3f us recording per operation of median "
              "%.3f ms\n",
              per_op * 1e6, median * 1e3);
}

}  // namespace cumulon::suite
