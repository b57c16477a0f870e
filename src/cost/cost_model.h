#ifndef CUMULON_COST_COST_MODEL_H_
#define CUMULON_COST_COST_MODEL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace cumulon {

/// Combined time of a task's compute and DFS-read phases when an
/// asynchronous prefetcher overlaps them. `overlap_fraction` in [0, 1] is
/// the fraction of the overlappable window the pipeline actually hides:
/// 0 models fully serial execution (cpu + read, the pre-prefetch engines),
/// 1 a perfect double-buffered pipeline (max(cpu, read)). Startup and
/// write-back are not overlappable and stay outside this term.
inline double PipelinedPhaseSeconds(double cpu_seconds, double read_seconds,
                                    double overlap_fraction) {
  const double f = std::clamp(overlap_fraction, 0.0, 1.0);
  return cpu_seconds + read_seconds -
         f * std::min(cpu_seconds, read_seconds);
}

/// Of `read_seconds`, the part that still blocks the task's compute under
/// the same overlap model — the task's modeled IO stall.
inline double ResidualStallSeconds(double cpu_seconds, double read_seconds,
                                   double overlap_fraction) {
  const double f = std::clamp(overlap_fraction, 0.0, 1.0);
  return read_seconds - f * std::min(cpu_seconds, read_seconds);
}

/// Expected number of transient machines (out of `transient_machines`, each
/// carrying `hazard_per_hour` exponential revocation risk) lost within a
/// `seconds`-long window: n * (1 - exp(-lambda * T)). Each machine is
/// revoked at most once, hence the survival form rather than n*lambda*T.
inline double ExpectedRevocations(int transient_machines,
                                  double hazard_per_hour, double seconds) {
  if (transient_machines <= 0 || hazard_per_hour <= 0.0 || seconds <= 0.0) {
    return 0.0;
  }
  const double lambda_t = hazard_per_hour / 3600.0 * seconds;
  return transient_machines * (1.0 - std::exp(-lambda_t));
}

/// Multiplicative slowdown the optimizer charges a plan for running on a
/// fleet where `transient_machines` of `total_machines` may be revoked:
/// each expected loss removes a machine's share of the fleet's capacity
/// for (on average) the remaining half of the window, plus the rework of
/// the in-flight tasks the loss killed — folded together as a lost-capacity
/// fraction E[losses] * 0.5 / total. The estimate is deliberately coarse
/// (the re-planning loop replays the actual seeded schedule for precise
/// numbers); clamps keep it finite when the fleet is mostly transient and
/// the hazard extreme.
inline double ExpectedRevocationSlowdown(int total_machines,
                                         int transient_machines,
                                         double hazard_per_hour,
                                         double seconds) {
  if (total_machines <= 0) return 1.0;
  const double expected =
      ExpectedRevocations(transient_machines, hazard_per_hour, seconds);
  if (expected <= 0.0) return 1.0;
  const double lost_fraction =
      std::min(expected * 0.5 / total_machines, 0.9);
  return std::min(1.0 / (1.0 - lost_fraction), 10.0);
}

/// Declared extra DFS reads of a task streaming its working set through a
/// per-task pin budget (out-of-core execution, exec/memory_budget.h): when
/// `working_set_bytes` exceeds `pin_budget_bytes`, the LRU panel window
/// keeps only the budgeted fraction resident, so the spilled fraction of
/// each reused operand is re-fetched on every reuse after the first.
/// `reused_bytes` is the operand's one-fetch footprint and `reuse_count`
/// how many times the task's compute order touches it. Zero when the
/// working set fits — the stream-vs-resident crossover is exactly
/// working_set_bytes == pin_budget_bytes, below which the optimizer should
/// prefer plans with smaller task working sets over paying refetch reads.
inline double StreamingRefetchBytes(int64_t reused_bytes, double reuse_count,
                                    int64_t working_set_bytes,
                                    int64_t pin_budget_bytes) {
  if (pin_budget_bytes <= 0 || working_set_bytes <= pin_budget_bytes) {
    return 0.0;
  }
  const double spilled_fraction =
      1.0 - static_cast<double>(pin_budget_bytes) / working_set_bytes;
  return static_cast<double>(reused_bytes) *
         std::max(0.0, reuse_count - 1.0) * spilled_fraction;
}

/// Per-tile-operation time models, expressed in seconds on the *reference
/// machine*, which by definition sustains 1.0 effective GFLOP/s of dense
/// GEMM per core. Element-wise and transpose throughputs are ratios
/// relative to that, because those ratios are hardware properties the
/// paper's benchmarking step measures; Calibrate() (calibration.h) fits
/// them on the host.
///
/// MachineProfile::cpu_gflops then scales reference seconds to any machine
/// type: seconds_on_m = seconds_ref / m.cpu_gflops.
struct TileOpCostModel {
  /// Effective element-wise throughput of the reference machine, in
  /// billions of elements/second (one read+op+write stream).
  double ew_gelems_per_sec = 0.25;

  /// Effective transpose throughput (strided access is slower than
  /// streaming), billions of elements/second.
  double transpose_gelems_per_sec = 0.15;

  /// Fixed CPU cost per tile-level kernel invocation (dispatch, pointer
  /// setup). Dominates only for very small tiles.
  double per_tile_overhead_seconds = 2e-5;

  /// C(m,n) += A(m,k) * B(k,n): 2mnk flops at 1 GFLOP/s.
  double GemmSeconds(int64_t m, int64_t n, int64_t k) const {
    return per_tile_overhead_seconds + 2.0 * m * n * k / 1e9;
  }

  /// One element-wise pass over n elements.
  double EwSeconds(int64_t n) const {
    return per_tile_overhead_seconds + n / (ew_gelems_per_sec * 1e9);
  }

  /// Transposing an n-element tile.
  double TransposeSeconds(int64_t n) const {
    return per_tile_overhead_seconds + n / (transpose_gelems_per_sec * 1e9);
  }

  /// Accumulating (acc += x) over n elements; same cost family as
  /// element-wise.
  double AccumulateSeconds(int64_t n) const { return EwSeconds(n); }
};

}  // namespace cumulon

#endif  // CUMULON_COST_COST_MODEL_H_
