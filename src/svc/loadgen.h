#ifndef CUMULON_SVC_LOADGEN_H_
#define CUMULON_SVC_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "svc/client.h"

namespace cumulon {

/// Closed-loop multi-tenant load for a service daemon: every simulated
/// tenant submits, thinks, and polls its own plans to completion, so the
/// offered load self-regulates the way real interactive tenants do (no
/// open-loop overrun). Arrivals mix Poisson tenants (exponential think
/// times) with bursty tenants (back-to-back bursts, then a long think);
/// plan sizes follow the heavy-tailed catalog mix.
struct LoadGenOptions {
  int tenants = 100;
  int total_submissions = 1000;

  /// Concurrent connections; tenants are partitioned across them.
  int workers = 8;

  /// Mean exponential think time between a Poisson tenant's submissions.
  double think_mean_seconds = 0.001;

  /// Fraction of tenants that are bursty: they fire `burst_size`
  /// submissions back-to-back, then think ~burst_size times longer.
  double burst_tenant_fraction = 0.25;
  int burst_size = 4;

  /// Fraction of submissions carrying this deadline (tight deadlines under
  /// backlog provoke typed admission rejections).
  double deadline_fraction = 0.0;
  double deadline_seconds = 300.0;

  /// Sweep cadence of the completion-polling phase.
  double poll_interval_seconds = 0.002;

  /// Give up polling a plan after this long (counted, not fatal).
  double poll_timeout_seconds = 120.0;

  /// Workload class -> sampling weight; empty = the default heavy-tailed
  /// mm ladder mix.
  std::vector<std::pair<std::string, double>> workload_mix;

  uint64_t seed = 17;
};

struct LoadGenReport {
  int submitted = 0;
  int accepted = 0;
  int rejected_quota = 0;
  int rejected_admission = 0;
  int rejected_draining = 0;
  int rejected_other = 0;
  int transport_errors = 0;

  int completed = 0;
  int failed = 0;
  int cancelled = 0;
  int poll_timeouts = 0;

  double wall_seconds = 0.0;

  /// Client-observed SUBMIT round-trip latency (the admission decision).
  /// Quantiles come from bounded-memory sketches (obs/quantile_sketch.h),
  /// accurate to within latency_rank_error of the exact sample rank; max
  /// is tracked exactly.
  double admission_p50_seconds = 0.0;
  double admission_p99_seconds = 0.0;
  double admission_max_seconds = 0.0;

  /// Client-observed submit -> terminal-poll latency of accepted plans.
  double completion_p50_seconds = 0.0;
  double completion_p99_seconds = 0.0;
  double completion_max_seconds = 0.0;

  /// Guaranteed rank-error ceiling of the quantiles above, as a fraction
  /// of the sample count (the worse of the two sketches). 0.0 when the
  /// sketches never collapsed, i.e. the quantiles are exact.
  double latency_rank_error = 0.0;
};

/// Opens one Transport per worker via `connect` and drives the load.
/// Fails only when no worker can connect or HELLO is refused; per-request
/// failures are counted in the report.
using TransportFactory =
    std::function<Result<std::unique_ptr<Transport>>()>;

Result<LoadGenReport> RunLoadGen(const TransportFactory& connect,
                                 const LoadGenOptions& options);

/// Exact percentile over the sample set (not a histogram bound):
/// the ceil(q * n)-th smallest value. Exposed for tests and benches.
double ExactPercentile(std::vector<double> values, double q);

}  // namespace cumulon

#endif  // CUMULON_SVC_LOADGEN_H_
