// svc-open: an in-process CumulonService behind a ServiceServer on a unix
// socket, driven by an open-loop Poisson generator. Tenants are
// independent, so the loop is open: two sender threads (one tenant each)
// send SUBMITs on a precomputed schedule whether or not earlier plans have
// finished, and one poller thread polls every accepted plan to a terminal
// state. Latencies count from each request's *scheduled* send time, so a
// sender held up by a slow SUBMIT charges the wait to the requests behind
// it. The generator uses 3 threads and 4 connections (2 senders, the
// poller, one for STATS/DRAIN), within the host's 4 cores.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/suite/suite.h"
#include "cloud/machine.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "svc/client.h"
#include "svc/loadgen.h"
#include "svc/server.h"
#include "svc/service.h"

namespace cumulon::suite {
namespace {

constexpr int kTenants = 2;
constexpr double kRatePerSecond = 20.0;  // both tenants together
constexpr double kPollTimeoutSeconds = 30.0;
constexpr double kLateSeconds = 1e-3;  // a send this late counts as late

struct MixEntry {
  const char* workload;
  double weight;
};
constexpr MixEntry kMix[] = {{"mm-s", 0.5},
                             {"mm-m", 0.2},
                             {"mm-l", 0.1},
                             {"linreg", 0.1},
                             {"gnmf", 0.1}};

/// One scheduled SUBMIT and what happened to it.
struct Plan {
  std::string workload;
  int tenant = 0;
  double scheduled = 0.0;  // NowSeconds() clock
  double sent = 0.0;
  double replied = 0.0;
  double polled = 0.0;  // first terminal POLL reply
  int64_t id = 0;
  double service_seconds = 0.0;  // service-side submit -> terminal
  double queue_wait_seconds = 0.0;
  std::string problem;  // "" = DONE in time
};

/// The run's SUBMIT schedule: rate x seconds plans holding the mix's exact
/// class counts in seeded order, alternating between the tenants, each sent
/// at a uniform random time in the window. Sorted uniform times are a
/// Poisson process conditioned on its count, so every seed offers the same
/// load and mix and differs only in order and timing.
std::vector<Plan> MakeSchedule(uint64_t seed, double start, double seconds) {
  Rng rng(seed);
  const auto total = static_cast<int>(std::lround(kRatePerSecond * seconds));
  std::vector<std::string> workloads;
  for (const MixEntry& entry : kMix) {
    workloads.insert(workloads.end(), std::lround(entry.weight * total),
                     entry.workload);
  }
  for (size_t i = workloads.size(); i > 1; --i) {
    std::swap(workloads[i - 1], workloads[rng.NextUint64(i)]);
  }
  std::vector<Plan> plans(workloads.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    plans[i].workload = workloads[i];
    plans[i].tenant = static_cast<int>(i % kTenants);
    plans[i].scheduled = start + rng.NextDouble() * seconds;
  }
  std::sort(plans.begin(), plans.end(), [](const Plan& a, const Plan& b) {
    return a.scheduled < b.scheduled;
  });
  return plans;
}

void SleepUntil(double when) {
  const double wait = when - NowSeconds();
  if (wait > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

std::string TenantToken(int tenant) { return StrCat("tenant-", tenant); }

ServiceOptions MakeServiceOptions(MetricsRegistry* metrics) {
  ServiceOptions options;
  auto machine = FindMachine("m1.large");
  CUMULON_CHECK(machine.ok()) << machine.status();
  options.machine = machine.value();
  options.elastic.min_machines = 2;
  options.elastic.max_machines = 16;
  options.slots_per_machine = 2;
  options.max_concurrent_plans = 2;
  options.reaper_interval_seconds = 0.002;
  options.elastic_interval_seconds = 0.02;
  // Quotas are not under test: no plan of this mix may be refused.
  options.session.default_quota.max_inflight_plans = 1 << 20;
  options.metrics = metrics;
  options.predictor.sim.metrics = metrics;  // engine.tasks of executed plans
  return options;
}

Result<std::unique_ptr<Transport>> Connect(const std::string& address) {
  auto transport = SocketTransport::Connect(address);
  if (!transport.ok()) return transport.status();
  return std::unique_ptr<Transport>(std::move(transport).value());
}

/// One set-up: the daemon on its socket, the generator's four connections
/// with their sessions, and a warm-up plan of every class polled to DONE
/// (which fills the daemon's per-class estimate cache).
class Daemon {
 public:
  explicit Daemon(const std::string& address)
      : address_(address),
        service_(MakeServiceOptions(&metrics_)),
        server_(&service_) {
    const Status started = server_.Start(address_);
    CUMULON_CHECK(started.ok()) << started;
    for (int i = 0; i < kTenants + 2; ++i) {
      auto transport = Connect(address_);
      CUMULON_CHECK(transport.ok()) << transport.status();
      transports_.push_back(std::move(transport).value());
    }
    // Connections: one per sender, then the poller's, then the ops one.
    for (int t = 0; t < kTenants; ++t) {
      senders_.push_back(std::make_unique<ServiceClient>(transports_[t].get()));
      pollers_.push_back(
          std::make_unique<ServiceClient>(transports_[kTenants].get()));
      CUMULON_CHECK(senders_[t]->Hello(TenantToken(t)).ok());
      CUMULON_CHECK(pollers_[t]->Hello(TenantToken(t)).ok());
    }
    ops_ = std::make_unique<ServiceClient>(transports_[kTenants + 1].get());
    CUMULON_CHECK(ops_->Hello("ops").ok());
    for (const MixEntry& entry : kMix) {
      auto submitted = senders_[0]->Submit(entry.workload);
      CUMULON_CHECK(submitted.ok()) << submitted.status();
      while (true) {
        auto polled = pollers_[0]->Poll(submitted->plan);
        CUMULON_CHECK(polled.ok()) << polled.status();
        if (polled->terminal) {
          CUMULON_CHECK(polled->state == "DONE") << polled->state;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }

  ~Daemon() {
    auto drained = ops_->Drain();
    if (!drained.ok()) {
      std::fprintf(stderr, "DRAIN failed: %s\n",
                   drained.status().ToString().c_str());
    }
    server_.WaitUntilStopped();
    transports_.clear();
    ::unlink(address_.substr(5).c_str());
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  ServiceClient* sender(int tenant) { return senders_[tenant].get(); }
  ServiceClient* poller(int tenant) { return pollers_[tenant].get(); }
  ServiceClient* ops() { return ops_.get(); }
  MetricsRegistry* metrics() { return &metrics_; }

 private:
  std::string address_;
  MetricsRegistry metrics_;
  CumulonService service_;
  ServiceServer server_;
  std::vector<std::unique_ptr<Transport>> transports_;
  std::vector<std::unique_ptr<ServiceClient>> senders_;
  std::vector<std::unique_ptr<ServiceClient>> pollers_;
  std::unique_ptr<ServiceClient> ops_;
};

/// Runs the open loop over `plans` (sorted by scheduled time) and fills in
/// every plan's outcome.
void DriveOpenLoop(Daemon* daemon, std::vector<Plan>* plans) {
  Mutex mu{"svc-open::mu"};
  std::deque<Plan*> accepted;  // handed from the senders to the poller
  int senders_running = kTenants;

  std::vector<std::thread> senders;
  for (int tenant = 0; tenant < kTenants; ++tenant) {
    senders.emplace_back([&, tenant] {
      ServiceClient* client = daemon->sender(tenant);
      for (Plan& plan : *plans) {
        if (plan.tenant != tenant) continue;
        SleepUntil(plan.scheduled);
        plan.sent = NowSeconds();
        auto reply = client->Submit(plan.workload);
        plan.replied = NowSeconds();
        if (!reply.ok()) {
          plan.problem = StrCat("SUBMIT ", plan.workload, ": ",
                                reply.status().ToString());
          continue;
        }
        plan.id = reply->plan;
        MutexLock lock(&mu);
        accepted.push_back(&plan);
      }
      MutexLock lock(&mu);
      --senders_running;
    });
  }

  std::thread poller([&] {
    std::vector<Plan*> outstanding;
    while (true) {
      {
        MutexLock lock(&mu);
        while (!accepted.empty()) {
          outstanding.push_back(accepted.front());
          accepted.pop_front();
        }
        if (senders_running == 0 && outstanding.empty()) break;
      }
      for (auto it = outstanding.begin(); it != outstanding.end();) {
        Plan* plan = *it;
        auto reply = daemon->poller(plan->tenant)->Poll(plan->id);
        const double now = NowSeconds();
        bool finished = true;
        if (!reply.ok()) {
          plan->problem = StrCat("POLL: ", reply.status().ToString());
        } else if (reply->terminal) {
          plan->polled = now;
          plan->service_seconds = reply->seconds;
          plan->queue_wait_seconds = reply->queue_wait_seconds;
          if (reply->state != "DONE") {
            plan->problem = StrCat(plan->workload, " ended ", reply->state);
          }
        } else if (now - plan->scheduled > kPollTimeoutSeconds) {
          plan->problem = StrCat(plan->workload, " poll timeout");
        } else {
          finished = false;
        }
        it = finished ? outstanding.erase(it) : it + 1;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  for (std::thread& sender : senders) sender.join();
  poller.join();
}

/// Spans of one plan: the sender's wait, SUBMIT, queue wait, the simulated
/// run up to the reaper noticing it, and the poll that reported it. The
/// last three come from the service's POLL reply, laid out after SUBMIT.
/// The service times a plan from inside SUBMIT, so laid out after it the
/// run can reach past the POLL that saw it end: it is clipped there, which
/// keeps the spans inside the plan's wall.
void TracePlan(const Plan& plan, int64_t index, LayerTrace* trace) {
  const int lane = static_cast<int>(index % 16);
  const int64_t root = trace->Add("bench", StrCat("plan ", plan.workload),
                                  plan.scheduled, plan.polled, 0, lane);
  trace->Add("svc", "sender busy", plan.scheduled, plan.sent, root, lane);
  trace->Add("svc", "SUBMIT", plan.sent, plan.replied, root, lane);
  const double started =
      std::min(plan.replied + plan.queue_wait_seconds, plan.polled);
  const double reaped =
      std::clamp(plan.replied + plan.service_seconds, started, plan.polled);
  trace->Add("sched", "queue wait", plan.replied, started, root, lane);
  trace->Add("cluster", "sim Executor::Run until reaped", started, reaped,
             root, lane);
  trace->Add("svc", "POLL", reaped, plan.polled, root, lane);
}

}  // namespace

RunResult RunSvcOpen(const RunConfig& config) {
  RunResult result;
  // Relative to the working directory, which keeps the path short.
  const std::string address = StrCat("unix:svc-", getpid(), ".sock");
  std::unique_ptr<Daemon> daemon;
  const std::vector<double> setups = TimeSetups(
      config,
      [&] { daemon = std::make_unique<Daemon>(address); },
      [&] { daemon.reset(); });  // drains and stops the previous daemon

  const double seconds = config.smoke ? 3.0 : config.seconds;
  MetricsRegistry* metrics = daemon->metrics();
  const int64_t rpcs_before = metrics->counter("svc.rpc.requests")->Value();
  const int64_t tasks_before = metrics->counter("engine.tasks")->Value();
  std::vector<Plan> plans =
      MakeSchedule(config.seed, NowSeconds() + 0.05, seconds);
  DriveOpenLoop(daemon.get(), &plans);
  const int64_t rpcs = metrics->counter("svc.rpc.requests")->Value() -
                       rpcs_before;
  const int64_t sim_tasks =
      metrics->counter("engine.tasks")->Value() - tasks_before;
  auto stats = daemon->ops()->Stats();
  daemon.reset();

  std::vector<double> admit, complete, lag, queue_wait;
  std::vector<double> admit_first, admit_last;  // first / last third
  int64_t late = 0;
  const double window_start = plans.empty() ? 0.0 : plans.front().scheduled;
  for (const Plan& plan : plans) {
    ++result.attempted;
    if (!plan.problem.empty()) {
      result.Fail(plan.problem);
      continue;
    }
    const double admit_s = plan.replied - plan.scheduled;
    admit.push_back(admit_s);
    complete.push_back(plan.polled - plan.scheduled);
    lag.push_back(plan.sent - plan.scheduled);
    queue_wait.push_back(plan.queue_wait_seconds);
    if (plan.sent - plan.scheduled > kLateSeconds) ++late;
    const double at = plan.scheduled - window_start;
    if (at < seconds / 3) admit_first.push_back(admit_s);
    if (at >= 2 * seconds / 3) admit_last.push_back(admit_s);
  }
  if (!stats.ok()) result.Fail(StrCat("STATS: ", stats.status().ToString()));
  const double admit_drift = ExactPercentile(admit_first, 0.5) > 0
                                 ? ExactPercentile(admit_last, 0.5) /
                                       ExactPercentile(admit_first, 0.5)
                                 : 0.0;
  std::printf("svc-open: %lld plans at %.0f/s over %.0f s\n",
              static_cast<long long>(result.attempted), kRatePerSecond,
              seconds);
  std::printf("  admission  p50 %.3f ms  p99 %.3f ms  (last/first third "
              "p50 %.2fx)\n",
              ExactPercentile(admit, 0.5) * 1e3,
              ExactPercentile(admit, 0.99) * 1e3, admit_drift);
  std::printf("  completion p50 %.3f ms  p90 %.3f ms  p99 %.3f ms\n",
              ExactPercentile(complete, 0.5) * 1e3,
              ExactPercentile(complete, 0.9) * 1e3,
              ExactPercentile(complete, 0.99) * 1e3);
  std::printf("  queue wait p50 %.3f ms; generator lag p99 %.3f ms\n",
              ExactPercentile(queue_wait, 0.5) * 1e3,
              ExactPercentile(lag, 0.99) * 1e3);

  if (!config.traced) {
    SetEndToEnd(setups, complete, &result);
    return result;
  }
  // Every run takes the plans' timestamps; a traced run only turns them
  // into spans after the loop, so tracing cannot slow the plans and its
  // overhead is the recording time per plan.
  LayerTrace trace;
  const double record_start = NowSeconds();
  int64_t index = 0;
  for (const Plan& plan : plans) {
    if (plan.problem.empty()) TracePlan(plan, index++, &trace);
  }
  const double record_seconds = NowSeconds() - record_start;

  InitPerLayer(&result);
  ProbeKernels(&result);
  const auto n = static_cast<int64_t>(complete.size());
  const double ops = std::max<double>(n, 1);
  result.Set("cluster.sim_tasks", sim_tasks / ops, "count/op", n);
  result.Set("svc.admit_drift", admit_drift, "ratio",
             static_cast<int64_t>(admit_first.size() + admit_last.size()));
  if (stats.ok()) {
    int64_t records = 0;
    for (const char* key : {"queued", "running", "completed", "failed",
                            "cancelled", "rejected"}) {
      records += stats->IntOr(key, 0);
    }
    result.Set("svc.records", static_cast<double>(records), "count", 1);
  }
  result.Set("svc.rpcs_per_plan", rpcs / ops, "count/op", n);
  result.Set("loadgen.late_frac", n > 0 ? static_cast<double>(late) / n : 0.0,
             "fraction", n);
  trace.Report(n, &result);
  SetTraceOverhead(record_seconds, complete, &result);
  if (!config.trace_path.empty()) {
    const Status st = trace.Write(config.trace_path);
    if (!st.ok()) result.Fail(StrCat("writing trace: ", st.ToString()));
  }
  return result;
}

}  // namespace cumulon::suite
