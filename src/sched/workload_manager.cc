#include "sched/workload_manager.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "common/strings.h"
#include "verify/verify.h"

namespace cumulon {

const char* SchedPolicyName(SchedPolicy policy) {
  switch (policy) {
    case SchedPolicy::kFifo:
      return "fifo";
    case SchedPolicy::kFairShare:
      return "fair";
    case SchedPolicy::kEdf:
      return "edf";
  }
  return "unknown";
}

Result<SchedPolicy> ParseSchedPolicy(const std::string& name) {
  if (name == "fifo") return SchedPolicy::kFifo;
  if (name == "fair" || name == "fair-share") return SchedPolicy::kFairShare;
  if (name == "edf") return SchedPolicy::kEdf;
  return Status::InvalidArgument(
      StrCat("unknown scheduling policy '", name,
             "' (expected fifo|fair|edf)"));
}

const char* PlanStateName(PlanState state) {
  switch (state) {
    case PlanState::kQueued:
      return "queued";
    case PlanState::kRunning:
      return "running";
    case PlanState::kDone:
      return "done";
    case PlanState::kFailed:
      return "failed";
    case PlanState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

WorkloadManager::WorkloadManager(TileStore* store, Engine* engine,
                                 const TileOpCostModel* cost,
                                 const WorkloadManagerOptions& options)
    : store_(store),
      engine_(engine),
      cost_(cost),
      options_(options),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : &owned_metrics_),
      started_(!options.defer_start),
      total_slots_(options.initial_slots > 0 ? options.initial_slots
                                             : engine->config().total_slots()),
      slot_share_(total_slots_),
      wall_start_(std::chrono::steady_clock::now()) {
  CUMULON_CHECK(store_ != nullptr);
  CUMULON_CHECK(engine_ != nullptr);
  CUMULON_CHECK(cost_ != nullptr);
  CUMULON_CHECK_GT(options_.max_concurrent_plans, 0);
  CUMULON_CHECK_GT(total_slots_, 0);
  workers_.reserve(options_.max_concurrent_plans);
  for (int i = 0; i < options_.max_concurrent_plans; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkloadManager::~WorkloadManager() {
  Drain();
}

double WorkloadManager::NowSecondsLocked() const {
  if (options_.virtual_time) return virtual_now_seconds_;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       wall_start_)
      .count();
}

int WorkloadManager::SlotShare(int total_slots, int running_plans) {
  if (running_plans <= 1) return total_slots;
  return (total_slots + running_plans - 1) / running_plans;
}

void WorkloadManager::UpdateSlotShareLocked() {
  slot_share_.store(SlotShare(total_slots_, running_));
}

int WorkloadManager::total_slots() const {
  MutexLock lock(&mu_);
  return total_slots_;
}

void WorkloadManager::ResizeSlots(int total_slots) {
  CUMULON_CHECK_GT(total_slots, 0);
  MutexLock lock(&mu_);
  total_slots_ = total_slots;
  UpdateSlotShareLocked();
}

double WorkloadManager::BacklogSeconds() const {
  MutexLock lock(&mu_);
  return BacklogSecondsLocked();
}

double WorkloadManager::BacklogSecondsLocked() const {
  double backlog = 0.0;
  for (const auto& [id, entry] : plans_) {
    if (entry->terminal) continue;
    if (entry->outcome.state != PlanState::kQueued &&
        entry->outcome.state != PlanState::kRunning) {
      continue;
    }
    if (entry->submission.estimate.valid) {
      backlog += entry->submission.estimate.seconds;
    }
  }
  return backlog / options_.max_concurrent_plans;
}

Result<int64_t> WorkloadManager::Submit(Submission submission) {
  MutexLock lock(&mu_);
  if (stopping_) {
    return Status::FailedPrecondition("workload manager is draining");
  }
  metrics_->counter("sched.submitted")->Increment();

  // Static plan verification ahead of cost-based admission: a structurally
  // broken plan (dependency cycle, double-produced matrix, infeasible
  // split) is rejected with its typed verify.* reason before it can
  // occupy a queue slot or fleet time. Residency and the determinism
  // contract are not enforced here — submitters may hand-assemble plans
  // against matrices already in the store.
  {
    PlanVerifyOptions verify_options;
    if (options_.executor.real_mode) {
      verify_options.memory_budget_bytes =
          options_.executor.memory_budget_bytes;
      TileCacheGroup* caches = engine_->tile_caches();
      verify_options.cache_reserve_bytes =
          caches != nullptr ? caches->bytes_per_node() : 0;
    }
    const Status verified =
        VerifyPlanStatus(submission.plan, verify_options, metrics_);
    if (!verified.ok()) {
      metrics_->counter("sched.rejected")->Increment();
      metrics_->counter("sched.rejected.verify")->Increment();
      return verified;
    }
  }

  const AdmissionEstimate& est = submission.estimate;
  if (options_.admission_control && est.valid) {
    if (submission.budget_dollars > 0.0 &&
        est.dollars > submission.budget_dollars) {
      metrics_->counter("sched.rejected")->Increment();
      metrics_->counter("sched.rejected.budget")->Increment();
      return Status::ResourceExhausted(StrCat(
          "submission '", submission.name, "' rejected: estimated cost $",
          est.dollars, " exceeds budget $", submission.budget_dollars));
    }
    if (submission.deadline_seconds > 0.0) {
      const double projected = BacklogSecondsLocked() + est.seconds;
      if (projected > submission.deadline_seconds) {
        metrics_->counter("sched.rejected")->Increment();
        metrics_->counter("sched.rejected.deadline")->Increment();
        return Status::ResourceExhausted(StrCat(
            "submission '", submission.name, "' rejected: estimated ",
            est.seconds, " s (", projected,
            " s with queued work ahead) cannot meet the ",
            submission.deadline_seconds, " s deadline"));
      }
    }
  }

  const int64_t id = next_plan_id_++;
  auto entry = std::make_unique<PlanEntry>();
  entry->outcome.plan_id = id;
  entry->outcome.name =
      submission.name.empty() ? StrCat("plan", id) : submission.name;
  entry->outcome.tenant = submission.tenant.empty() ? entry->outcome.name
                                                    : submission.tenant;
  entry->outcome.estimate = est;
  entry->outcome.submit_seconds = NowSecondsLocked();
  if (submission.deadline_seconds > 0.0) {
    entry->outcome.deadline_abs_seconds =
        entry->outcome.submit_seconds + submission.deadline_seconds;
  }
  entry->submission = std::move(submission);

  metrics_->counter("sched.admitted")->Increment();
  metrics_->counter(StrCat("sched.tenant.", entry->outcome.tenant,
                           ".submitted"))
      ->Increment();
  queue_.push_back(id);
  plans_.emplace(id, std::move(entry));
  metrics_->gauge("sched.queued")->Set(static_cast<int64_t>(queue_.size()));
  work_cv_.NotifyAll();
  return id;
}

void WorkloadManager::Start() {
  MutexLock lock(&mu_);
  started_ = true;
  work_cv_.NotifyAll();
}

Status WorkloadManager::Cancel(int64_t plan_id) {
  MutexLock lock(&mu_);
  auto it = plans_.find(plan_id);
  if (it == plans_.end()) {
    return Status::NotFound(StrCat("no plan with id ", plan_id));
  }
  PlanEntry* entry = it->second.get();
  if (entry->terminal) {
    return Status::FailedPrecondition(
        StrCat("plan ", plan_id, " already ",
               PlanStateName(entry->outcome.state)));
  }
  entry->cancel.store(true, std::memory_order_relaxed);
  if (entry->outcome.state == PlanState::kQueued) {
    queue_.erase(std::remove(queue_.begin(), queue_.end(), plan_id),
                 queue_.end());
    metrics_->gauge("sched.queued")->Set(static_cast<int64_t>(queue_.size()));
    const double now = NowSecondsLocked();
    entry->outcome.state = PlanState::kCancelled;
    entry->outcome.status = Status::Cancelled("cancelled while queued");
    entry->outcome.start_seconds = now;
    entry->outcome.finish_seconds = now;
    entry->terminal = true;
    metrics_->counter("sched.cancelled")->Increment();
    terminal_cv_.NotifyAll();
  }
  // Running plans: the executor/engine observe the flag at the next task
  // boundary and resolve through FinishPlanLocked.
  return Status::OK();
}

PlanOutcome WorkloadManager::Wait(int64_t plan_id) {
  MutexLock lock(&mu_);
  auto it = plans_.find(plan_id);
  CUMULON_CHECK(it != plans_.end()) << "no plan with id " << plan_id;
  PlanEntry* entry = it->second.get();
  while (!entry->terminal) terminal_cv_.Wait(&mu_);
  return entry->outcome;
}

Result<PlanState> WorkloadManager::QueryState(int64_t plan_id) const {
  MutexLock lock(&mu_);
  auto it = plans_.find(plan_id);
  if (it == plans_.end()) {
    return Status::NotFound(StrCat("no plan with id ", plan_id));
  }
  return it->second->outcome.state;
}

Result<PlanOutcome> WorkloadManager::TryGetOutcome(int64_t plan_id) const {
  MutexLock lock(&mu_);
  auto it = plans_.find(plan_id);
  if (it == plans_.end()) {
    return Status::NotFound(StrCat("no plan with id ", plan_id));
  }
  if (!it->second->terminal) {
    return Status::FailedPrecondition(
        StrCat("plan ", plan_id, " still ",
               PlanStateName(it->second->outcome.state)));
  }
  return it->second->outcome;
}

std::vector<int64_t> WorkloadManager::CancelAllQueued() {
  MutexLock lock(&mu_);
  std::vector<int64_t> cancelled;
  cancelled.reserve(queue_.size());
  const double now = NowSecondsLocked();
  for (const int64_t id : queue_) {
    PlanEntry* entry = plans_.at(id).get();
    entry->cancel.store(true, std::memory_order_relaxed);
    entry->outcome.state = PlanState::kCancelled;
    entry->outcome.status = Status::Cancelled("cancelled while queued");
    entry->outcome.start_seconds = now;
    entry->outcome.finish_seconds = now;
    entry->terminal = true;
    metrics_->counter("sched.cancelled")->Increment();
    cancelled.push_back(id);
  }
  queue_.clear();
  metrics_->gauge("sched.queued")->Set(0);
  if (!cancelled.empty()) terminal_cv_.NotifyAll();
  return cancelled;
}

std::vector<PlanOutcome> WorkloadManager::Drain() {
  {
    MutexLock lock(&mu_);
    started_ = true;  // a deferred queue must flush before shutdown
    work_cv_.NotifyAll();
    while (!(queue_.empty() && running_ == 0)) terminal_cv_.Wait(&mu_);
    stopping_ = true;
    work_cv_.NotifyAll();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  std::vector<PlanOutcome> outcomes;
  MutexLock lock(&mu_);
  outcomes.reserve(plans_.size());
  for (const auto& [id, entry] : plans_) {
    outcomes.push_back(entry->outcome);
  }
  return outcomes;
}

int WorkloadManager::queued_plans() const {
  MutexLock lock(&mu_);
  return static_cast<int>(queue_.size());
}

WorkloadManager::PlanEntry* WorkloadManager::PickNextLocked() {
  if (queue_.empty()) return nullptr;
  const double now = NowSecondsLocked();
  auto best = queue_.end();
  double best_key = std::numeric_limits<double>::infinity();
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    PlanEntry* entry = plans_.at(*it).get();
    double key = 0.0;
    switch (options_.policy) {
      case SchedPolicy::kFifo:
        key = static_cast<double>(entry->outcome.plan_id);
        break;
      case SchedPolicy::kFairShare: {
        // Least-served tenant first; FIFO within a tenant via the id
        // tiebreak below.
        auto served = tenant_service_seconds_.find(entry->outcome.tenant);
        key = served == tenant_service_seconds_.end() ? 0.0 : served->second;
        break;
      }
      case SchedPolicy::kEdf: {
        // A deadline-less plan is due an hour after its submission, and
        // every second of waiting tightens the effective deadline by 0.1 s.
        constexpr double kNoDeadlineHorizonSeconds = 3600.0;
        constexpr double kAgingRate = 0.1;
        const double effective_deadline =
            entry->outcome.deadline_abs_seconds > 0.0
                ? entry->outcome.deadline_abs_seconds
                : entry->outcome.submit_seconds + kNoDeadlineHorizonSeconds;
        const double waited = now - entry->outcome.submit_seconds;
        key = effective_deadline - kAgingRate * waited;
        break;
      }
    }
    if (best == queue_.end() || key < best_key ||
        (key == best_key && *it < *best)) {
      best = it;
      best_key = key;
    }
  }
  PlanEntry* chosen = plans_.at(*best).get();
  queue_.erase(best);
  metrics_->gauge("sched.queued")->Set(static_cast<int64_t>(queue_.size()));
  return chosen;
}

void WorkloadManager::FinishPlanLocked(PlanEntry* entry, PlanState state,
                                       Status status, PlanStats stats,
                                       double start, double duration) {
  PlanOutcome& out = entry->outcome;
  out.state = state;
  out.status = std::move(status);
  out.stats = std::move(stats);
  out.start_seconds = start;
  out.finish_seconds = start + duration;
  if (options_.virtual_time) {
    virtual_now_seconds_ = std::max(virtual_now_seconds_, out.finish_seconds);
  }
  out.deadline_met = out.deadline_abs_seconds <= 0.0 ||
                     out.finish_seconds <= out.deadline_abs_seconds;
  tenant_service_seconds_[out.tenant] += duration;
  entry->terminal = true;

  switch (state) {
    case PlanState::kDone:
      metrics_->counter("sched.completed")->Increment();
      break;
    case PlanState::kFailed:
      metrics_->counter("sched.failed")->Increment();
      break;
    case PlanState::kCancelled:
      metrics_->counter("sched.cancelled")->Increment();
      break;
    default:
      break;
  }
  if (out.deadline_abs_seconds > 0.0 && state == PlanState::kDone) {
    metrics_->counter(out.deadline_met ? "sched.deadline.met"
                                       : "sched.deadline.missed")
        ->Increment();
  }
  metrics_->histogram("sched.queue_wait_seconds")
      ->Observe(out.queue_wait_seconds());
  metrics_->histogram("sched.run_seconds")->Observe(duration);
  metrics_->histogram("sched.turnaround_seconds")
      ->Observe(out.turnaround_seconds());
  metrics_->counter(StrCat("sched.tenant.", out.tenant, ".finished"))
      ->Increment();

  Tracer* tracer = options_.tracer;
  if (tracer != nullptr) {
    TraceSpan span;
    span.name = StrCat("plan ", out.name, " [", PlanStateName(state), "]");
    span.category = "plan";
    span.parent_id = -1;
    span.machine = -1;
    span.slot = static_cast<int>(out.plan_id);
    span.start_seconds = out.start_seconds;
    span.duration_seconds = duration;
    span.args = {
        {"plan", static_cast<double>(out.plan_id)},
        {"queue_wait_seconds", out.queue_wait_seconds()},
        {"deadline_abs_seconds", out.deadline_abs_seconds},
        {"deadline_met", out.deadline_met ? 1.0 : 0.0},
        {"estimate_seconds", out.estimate.valid ? out.estimate.seconds : 0.0},
    };
    tracer->AddSpan(std::move(span));
  }
  terminal_cv_.NotifyAll();
}

void WorkloadManager::WorkerLoop() {
  for (;;) {
    PlanEntry* entry = nullptr;
    double start = 0.0;
    {
      MutexLock lock(&mu_);
      while (!(stopping_ || (started_ && !queue_.empty()))) {
        work_cv_.Wait(&mu_);
      }
      if (stopping_ && queue_.empty()) return;
      entry = PickNextLocked();
      if (entry == nullptr) continue;
      entry->outcome.state = PlanState::kRunning;
      ++running_;
      UpdateSlotShareLocked();
      metrics_->gauge("sched.running")->Set(running_);
      start = NowSecondsLocked();
    }

    ExecutorOptions exec_options = options_.executor;
    exec_options.plan_id = entry->outcome.plan_id;
    exec_options.plan_tag = entry->outcome.name;
    exec_options.slot_share = &slot_share_;
    exec_options.cancel = &entry->cancel;
    if (exec_options.metrics == nullptr) exec_options.metrics = metrics_;
    if (exec_options.tracer == nullptr) exec_options.tracer = options_.tracer;
    Executor executor(store_, engine_, cost_, exec_options);

    const auto wall_before = std::chrono::steady_clock::now();
    Result<PlanStats> result = executor.Run(entry->submission.plan);
    const double wall_duration =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_before)
            .count();

    MutexLock lock(&mu_);
    --running_;
    UpdateSlotShareLocked();
    metrics_->gauge("sched.running")->Set(running_);
    if (result.ok()) {
      // Virtual time: the plan occupied the cluster for its simulated
      // duration; wall time: for as long as it really ran.
      const double duration =
          options_.virtual_time ? result->total_seconds : wall_duration;
      FinishPlanLocked(entry, PlanState::kDone, Status::OK(),
                       std::move(result).value(), start, duration);
    } else if (result.status().code() == StatusCode::kCancelled) {
      FinishPlanLocked(entry, PlanState::kCancelled, result.status(),
                       PlanStats{}, start, wall_duration);
    } else {
      FinishPlanLocked(entry, PlanState::kFailed, result.status(),
                       PlanStats{}, start, wall_duration);
    }
    work_cv_.NotifyAll();
  }
}

}  // namespace cumulon
