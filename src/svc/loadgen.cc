#include "svc/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/thread_annotations.h"
#include "obs/quantile_sketch.h"
#include "svc/message.h"

namespace cumulon {
namespace {

// Interruptible sleep; a fresh mutex/condvar pair per call keeps the
// lock-order validator out of the picture.
void SleepSeconds(double seconds) {
  if (seconds <= 0.0) return;
  Mutex mu("loadgen sleep");
  CondVar cv;
  MutexLock lock(&mu);
  cv.WaitFor(&mu, std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::duration<double>(seconds)));
}

// Heavy-tailed default: mostly small plans, a thin stream of monsters.
std::vector<std::pair<std::string, double>> DefaultMix() {
  return {{"mm-s", 0.55},
          {"mm-m", 0.25},
          {"mm-l", 0.12},
          {"mm-xl", 0.04},
          {"linreg", 0.04}};
}

struct TenantPlan {
  int tenant = 0;
  std::string workload;
  double deadline_seconds = 0.0;
};

struct AcceptedPlan {
  int64_t plan = 0;
  int tenant = 0;
  // Against the worker-local stopwatch, taken just before SUBMIT went out.
  double submit_at_seconds = 0.0;
};

struct WorkerResult {
  LoadGenReport counts;  // latency fields unused; merged by the caller
  // Bounded-memory latency sketches (obs/quantile_sketch.h): each worker
  // owns its sketches single-threaded, the caller merges after join. A
  // firehose run no longer buffers one double per request.
  QuantileSketch admission_seconds;
  QuantileSketch completion_seconds;
  Status connect_status;  // non-OK when the worker never got a transport
};

class MixSampler {
 public:
  explicit MixSampler(std::vector<std::pair<std::string, double>> mix)
      : mix_(std::move(mix)) {
    for (const auto& [name, weight] : mix_) total_ += weight;
    CUMULON_CHECK_GT(total_, 0.0);
  }

  const std::string& Sample(Rng* rng) const {
    double roll = rng->NextDouble() * total_;
    for (const auto& [name, weight] : mix_) {
      roll -= weight;
      if (roll <= 0.0) return name;
    }
    return mix_.back().first;
  }

 private:
  std::vector<std::pair<std::string, double>> mix_;
  double total_ = 0.0;
};

void RunWorker(const TransportFactory& connect, const LoadGenOptions& options,
               const std::vector<TenantPlan>& schedule, uint64_t seed,
               WorkerResult* out) {
  auto transport = connect();
  if (!transport.ok()) {
    out->connect_status = transport.status();
    return;
  }
  Rng rng(seed);

  // One session per tenant this worker owns, opened lazily on first use and
  // shared across that tenant's submissions (tenants keep their session for
  // the whole run, like a real connected client).
  std::map<int, std::unique_ptr<ServiceClient>> clients;
  auto client_for = [&](int tenant) -> ServiceClient* {
    auto it = clients.find(tenant);
    if (it != clients.end()) return it->second.get();
    auto client = std::make_unique<ServiceClient>(transport->get());
    Status hello = client->Hello(StrCat("tenant-", tenant));
    if (!hello.ok()) {
      out->counts.transport_errors++;
      return nullptr;
    }
    return clients.emplace(tenant, std::move(client)).first->second.get();
  };

  Stopwatch clock;
  std::vector<AcceptedPlan> accepted;
  accepted.reserve(schedule.size());

  int since_burst = 0;
  for (const TenantPlan& item : schedule) {
    ServiceClient* client = client_for(item.tenant);
    out->counts.submitted++;
    if (client == nullptr) continue;

    const double submit_at = clock.ElapsedSeconds();
    Stopwatch rpc;
    auto reply = client->Submit(item.workload, /*name=*/"",
                                item.deadline_seconds);
    out->admission_seconds.Add(rpc.ElapsedSeconds());
    if (reply.ok()) {
      out->counts.accepted++;
      accepted.push_back({reply->plan, item.tenant, submit_at});
    } else {
      const std::string reason = ErrorReason(reply.status());
      if (reason == "quota.inflight" || reason == "quota.budget") {
        out->counts.rejected_quota++;
      } else if (reason == "admission.deadline" ||
                 reason == "admission.budget") {
        out->counts.rejected_admission++;
      } else if (reason == "draining") {
        out->counts.rejected_draining++;
      } else if (reason.empty()) {
        out->counts.transport_errors++;
      } else {
        out->counts.rejected_other++;
      }
    }

    // Think time: bursty tenants sleep once per burst (for burst_size times
    // as long); Poisson tenants sleep an exponential draw every submission.
    const bool bursty =
        (item.tenant % 997) <
        static_cast<int>(options.burst_tenant_fraction * 997.0);
    const int burst = std::max(1, options.burst_size);
    if (bursty) {
      if (++since_burst >= burst) {
        since_burst = 0;
        SleepSeconds(-std::log(1.0 - rng.NextDouble()) *
                     options.think_mean_seconds * burst);
      }
    } else {
      SleepSeconds(-std::log(1.0 - rng.NextDouble()) *
                   options.think_mean_seconds);
    }
  }

  // Poll phase: sweep the open plans until each is terminal. The completion
  // latency is client-observed (submit to terminal-poll), so it includes
  // queueing, execution, and our own polling granularity — what a tenant
  // actually waits.
  std::deque<AcceptedPlan> open(accepted.begin(), accepted.end());
  while (!open.empty()) {
    const size_t sweep = open.size();
    for (size_t i = 0; i < sweep; ++i) {
      AcceptedPlan plan = open.front();
      open.pop_front();
      // Plans must be polled through the session of the tenant that
      // submitted them (anything else is a typed plan.foreign error).
      auto it = clients.find(plan.tenant);
      if (it == clients.end()) {
        out->counts.transport_errors++;
        continue;
      }
      auto poll = it->second->Poll(plan.plan);
      if (!poll.ok()) {
        out->counts.transport_errors++;
        continue;
      }
      if (poll->terminal) {
        out->completion_seconds.Add(clock.ElapsedSeconds() -
                                    plan.submit_at_seconds);
        if (poll->state == "DONE") {
          out->counts.completed++;
        } else if (poll->state == "FAILED") {
          out->counts.failed++;
        } else {
          out->counts.cancelled++;
        }
        continue;
      }
      if (clock.ElapsedSeconds() - plan.submit_at_seconds >
          options.poll_timeout_seconds) {
        out->counts.poll_timeouts++;
        continue;
      }
      open.push_back(plan);
    }
    if (!open.empty()) SleepSeconds(options.poll_interval_seconds);
  }
}

}  // namespace

double ExactPercentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size());
  size_t index = static_cast<size_t>(std::ceil(rank));
  if (index > 0) index--;  // ceil(q*n)-th smallest, 1-based -> 0-based
  if (index >= values.size()) index = values.size() - 1;
  return values[index];
}

Result<LoadGenReport> RunLoadGen(const TransportFactory& connect,
                                 const LoadGenOptions& options) {
  if (options.tenants <= 0 || options.total_submissions <= 0 ||
      options.workers <= 0) {
    return Status::InvalidArgument(
        "loadgen needs positive tenants, submissions, and workers");
  }
  const MixSampler sampler(options.workload_mix.empty()
                               ? DefaultMix()
                               : options.workload_mix);

  // Build each worker's submission schedule up front (deterministic given
  // the seed): tenants are partitioned across workers, and each worker
  // interleaves its tenants' submissions round-robin so concurrent tenants
  // overlap in time.
  Rng plan_rng(options.seed);
  const int workers =
      std::min(options.workers, std::max(1, options.tenants));
  std::vector<std::vector<TenantPlan>> schedules(workers);
  for (int i = 0; i < options.total_submissions; ++i) {
    const int tenant = static_cast<int>(plan_rng.NextUint64(
        static_cast<uint64_t>(options.tenants)));
    TenantPlan item;
    item.tenant = tenant;
    item.workload = sampler.Sample(&plan_rng);
    if (options.deadline_fraction > 0.0 &&
        plan_rng.NextDouble() < options.deadline_fraction) {
      item.deadline_seconds = options.deadline_seconds;
    }
    schedules[tenant % workers].push_back(item);
  }

  std::vector<WorkerResult> results(workers);
  Stopwatch wall;
  {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        RunWorker(connect, options, schedules[w],
                  options.seed + 0x9e3779b9u * (w + 1), &results[w]);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  LoadGenReport report;
  report.wall_seconds = wall.ElapsedSeconds();
  QuantileSketch admission;
  QuantileSketch completion;
  int connected = 0;
  Status first_connect_error = Status::OK();
  for (const WorkerResult& r : results) {
    if (!r.connect_status.ok()) {
      if (first_connect_error.ok()) first_connect_error = r.connect_status;
      continue;
    }
    connected++;
    report.submitted += r.counts.submitted;
    report.accepted += r.counts.accepted;
    report.rejected_quota += r.counts.rejected_quota;
    report.rejected_admission += r.counts.rejected_admission;
    report.rejected_draining += r.counts.rejected_draining;
    report.rejected_other += r.counts.rejected_other;
    report.transport_errors += r.counts.transport_errors;
    report.completed += r.counts.completed;
    report.failed += r.counts.failed;
    report.cancelled += r.counts.cancelled;
    report.poll_timeouts += r.counts.poll_timeouts;
    admission.Merge(r.admission_seconds);
    completion.Merge(r.completion_seconds);
  }
  if (connected == 0) {
    return Status(first_connect_error.code(),
                  StrCat("no loadgen worker could connect: ",
                         first_connect_error.message()));
  }
  report.admission_p50_seconds = admission.Quantile(0.50);
  report.admission_p99_seconds = admission.Quantile(0.99);
  report.admission_max_seconds = admission.max();  // min/max stay exact
  report.completion_p50_seconds = completion.Quantile(0.50);
  report.completion_p99_seconds = completion.Quantile(0.99);
  report.completion_max_seconds = completion.max();
  report.latency_rank_error = std::max(admission.rank_error_bound(),
                                       completion.rank_error_bound());
  return report;
}

}  // namespace cumulon
