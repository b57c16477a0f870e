#ifndef CUMULON_BENCH_SUITE_SUITE_H_
#define CUMULON_BENCH_SUITE_SUITE_H_

// Shared plumbing of cumulon_bench, the end-to-end benchmark: run
// configuration, the metric/result record each workload fills, process
// clocks, and the bench-owned layer trace that turns spans around calls
// into each layer into per-layer self times.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace cumulon::suite {

/// What one invocation of a workload is asked to do.
struct RunConfig {
  uint64_t seed = 1;
  /// Length of the timed phase.
  double seconds = 20.0;
  /// Tiny shapes, one set-up and short phases (the ctest smoke run).
  bool smoke = false;
  /// Per-layer run (bench-owned spans) instead of the end-to-end run.
  bool traced = false;
  /// Where the Chrome trace of a traced run goes ("" = not written).
  std::string trace_path;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;
};

/// Outcome of one workload invocation: operation counts, failed checks and
/// the metrics of the run's mode (end-to-end or per-layer).
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit,
           int64_t samples);

  /// Counts one failed operation and records why.
  void Fail(const std::string& problem);

  bool correct() const { return problems.empty(); }
};

/// Seconds on the steady clock since the process started.
double NowSeconds();

/// Peak resident set of the process, in MiB.
double MaxRssMb();

/// Runs `setup` repeatedly and returns each attempt's wall seconds: once
/// for smoke and traced runs; otherwise at least 3 times and until 1 s of
/// set-up has been timed (at most 25), so setup_s is a median even for
/// set-ups of a few milliseconds. `teardown` (untimed) runs before every
/// attempt after the first, releasing the previous set-up.
std::vector<double> TimeSetups(const RunConfig& config,
                               const std::function<void()>& setup,
                               const std::function<void()>& teardown);

/// Fills the end-to-end metrics every workload reports: set-up time (median
/// over the repeated set-ups), the latency median of the workload's
/// operations, and peak RSS. The p90 and max are printed, not reported:
/// most workloads complete under 100 operations per run, too few for a tail
/// quantile that repeats from run to run.
void SetEndToEnd(const std::vector<double>& setup_seconds,
                 const std::vector<double>& latency_seconds,
                 RunResult* result);

/// Every per-layer metric, set to 0, so a workload only overwrites the
/// ones whose layer it exercises and the emitted set is the same for every
/// workload.
void InitPerLayer(RunResult* result);

/// Single-threaded kernel probes on 512 x 512 tiles: Gemm GFLOP/s and
/// element-wise Gelem/s (median of repeated calls). Sets matrix.gemm_gflops
/// and matrix.ew_gelems; returns the Gemm rate.
double ProbeKernels(RunResult* result);

/// Bench-owned wall-clock spans, one per call into a layer, with explicit
/// parents. The tracer is never installed as the global tracer, so the
/// program's engines and executors do not record into it: every span here
/// comes from the benchmark's own files. Thread-safe.
class LayerTrace {
 public:
  LayerTrace() = default;
  LayerTrace(const LayerTrace&) = delete;
  LayerTrace& operator=(const LayerTrace&) = delete;

  /// Records [start, end] (NowSeconds() clock) in `layer`. `parent` is the
  /// enclosing span's id, or 0 for a root span (one per operation). `lane`
  /// separates operations that overlap in time. Returns the span id.
  int64_t Add(const std::string& layer, const std::string& name,
              double start, double end, int64_t parent, int lane = 0);

  /// Sets <layer>.self_frac from the spans and prints the self-time table,
  /// per operation over `ops` operations.
  void Report(int64_t ops, RunResult* result) const;

  /// Chrome trace_event JSON.
  Status Write(const std::string& path) const {
    return tracer_.WriteChromeJson(path);
  }

 private:
  /// Self time per layer: each span's duration minus the part of it that
  /// its child spans cover.
  std::map<std::string, double> SelfSeconds() const;

  /// Summed duration of the root spans.
  double RootSeconds() const;

  Tracer tracer_{Tracer::ClockDomain::kWall};
};

/// Sets obs.trace_overhead_frac: the time spent recording spans, per
/// operation, over the median operation latency. Spans are recorded after
/// an operation's timestamps are taken, so this is what tracing costs.
void SetTraceOverhead(double record_seconds,
                      const std::vector<double>& latency_seconds,
                      RunResult* result);

// One entry point per workload.
RunResult RunRsvdMem(const RunConfig& config);
RunResult RunRsvdIo(const RunConfig& config);
RunResult RunGnmfIo(const RunConfig& config);
RunResult RunPlanSearch(const RunConfig& config);
RunResult RunSvcOpen(const RunConfig& config);

}  // namespace cumulon::suite

#endif  // CUMULON_BENCH_SUITE_SUITE_H_
