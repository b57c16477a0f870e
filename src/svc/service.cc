#include "svc/service.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "svc/catalog.h"
#include "verify/verify.h"

namespace cumulon {

const char* SvcPlanStateName(SvcPlanState state) {
  switch (state) {
    case SvcPlanState::kQueued: return "QUEUED";
    case SvcPlanState::kRunning: return "RUNNING";
    case SvcPlanState::kDone: return "DONE";
    case SvcPlanState::kFailed: return "FAILED";
    case SvcPlanState::kCancelled: return "CANCELLED";
    case SvcPlanState::kRejected: return "REJECTED";
  }
  return "UNKNOWN";
}

namespace {

DfsOptions MakeDfsOptions(const ServiceOptions& options) {
  DfsOptions dfs;
  dfs.num_nodes = options.elastic.max_machines;
  dfs.replication = options.predictor.dfs_replication;
  dfs.seed = options.predictor.seed;
  return dfs;
}

ClusterConfig MakeEngineCluster(const ServiceOptions& options) {
  // The engine is provisioned for the elastic maximum; the manager's slot
  // total is the live fleet size, so scale-out is a resize of that total,
  // never an engine swap.
  return ClusterConfig{options.machine, options.elastic.max_machines,
                       options.slots_per_machine};
}

SimEngineOptions MakeSimOptions(const ServiceOptions& options) {
  SimEngineOptions sim = options.predictor.sim;
  sim.replication = options.predictor.dfs_replication;
  sim.noise_sigma = 0.0;
  return sim;
}

WorkloadManagerOptions MakeManagerOptions(const ServiceOptions& options,
                                          int initial_machines,
                                          MetricsRegistry* metrics) {
  WorkloadManagerOptions manager;
  manager.policy = options.policy;
  manager.max_concurrent_plans = options.max_concurrent_plans;
  manager.admission_control = true;
  // A live daemon runs on the wall clock: tenants measure admission and
  // completion latency against real time, and the executors' simulated
  // durations stay inside the estimates.
  manager.virtual_time = false;
  manager.defer_start = options.defer_start;
  manager.initial_slots = initial_machines * options.slots_per_machine;
  manager.executor.real_mode = false;
  manager.executor.job_startup_seconds =
      options.predictor.job_startup_seconds;
  manager.metrics = metrics;
  return manager;
}

/// Where a durable write stages `path`'s new contents.
std::string TempPath(const std::string& path) { return path + ".tmp"; }

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::Internal(
      StrCat(what, " ", path, " failed: ", std::strerror(errno)));
}

/// Replaces `path` (a file in directory `dir`) with `contents` so that a
/// crash at any point leaves either the old file or the new one, never a
/// torn one: the bytes go to TempPath(path), which is fsynced and renamed
/// over `path`, and then `dir` is fsynced so the rename itself persists.
Status WriteFileDurably(const std::string& dir, const std::string& path,
                        const std::string& contents) {
  const std::string tmp = TempPath(path);
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoStatus("creating", tmp);
  // A failed write drops the temporary and leaves `path` as it was.
  auto fail = [&tmp, &fd](const char* what) {
    const Status error = ErrnoStatus(what, tmp);
    if (fd >= 0) ::close(fd);
    std::remove(tmp.c_str());
    return error;
  };
  for (size_t written = 0; written < contents.size();) {
    const ssize_t n =
        ::write(fd, contents.data() + written, contents.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return fail("writing");
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) return fail("syncing");
  const int closed = ::close(fd);
  fd = -1;
  if (closed != 0) return fail("closing");
  if (::rename(tmp.c_str(), path.c_str()) != 0) return fail("renaming");
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) return ErrnoStatus("opening", dir);
  const Status synced =
      ::fsync(dir_fd) == 0 ? Status::OK() : ErrnoStatus("syncing", dir);
  ::close(dir_fd);
  return synced;
}

}  // namespace

CumulonService::CumulonService(const ServiceOptions& options)
    : options_(options),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : &owned_metrics_),
      dfs_(MakeDfsOptions(options_)),
      store_(&dfs_),
      engine_(MakeEngineCluster(options_), MakeSimOptions(options_)),
      cost_(options_.predictor.cost),
      manager_(&store_, &engine_, &cost_,
               MakeManagerOptions(options_,
                                  options_.initial_machines > 0
                                      ? options_.initial_machines
                                      : options_.elastic.min_machines,
                                  metrics_)),
      sessions_([&] {
        SessionOptions session = options_.session;
        session.metrics = metrics_;
        session.tracer = options_.tracer;
        return session;
      }()) {
  options_.predictor.lowering.tile_dim = options_.tile_dim;
  const int initial = options_.initial_machines > 0
                          ? options_.initial_machines
                          : options_.elastic.min_machines;
  ElasticControllerOptions controller;
  controller.policy = options_.elastic;
  controller.slots_per_machine = options_.slots_per_machine;
  controller.metrics = metrics_;
  controller_ = std::make_unique<ElasticFleetController>(
      FleetState{initial, 0}, controller);
  metrics_->gauge("svc.fleet.slots")
      ->Set(initial * options_.slots_per_machine);

  RestoreFromDisk();
  reaper_ = std::thread([this] { ReaperLoop(); });
}

CumulonService::~CumulonService() { StopReaper(); }

bool CumulonService::drained() const {
  MutexLock lock(&mu_);
  return drained_;
}

int CumulonService::restored_plans() const { return restored_plans_; }

void CumulonService::CloseSession(int64_t session_id) {
  sessions_.Close(session_id);
}

JsonValue CumulonService::Dispatch(const JsonValue& request) {
  Stopwatch sw;
  const double start_wall = wall_clock_.ElapsedSeconds();
  metrics_->counter("svc.rpc.requests")->Increment();
  const std::string type = request.StringOr("type", "");
  JsonValue reply;
  if (type == "HELLO") {
    reply = HandleHello(request);
  } else if (type == "SUBMIT") {
    reply = HandleSubmit(request);
  } else if (type == "POLL") {
    reply = HandlePoll(request);
  } else if (type == "RESULT") {
    reply = HandleResult(request);
  } else if (type == "CANCEL") {
    reply = HandleCancel(request);
  } else if (type == "STATS") {
    reply = HandleStats(request);
  } else if (type == "DRAIN") {
    reply = HandleDrain(request);
  } else {
    reply = EncodeError(TypedError(
        StatusCode::kInvalidArgument, "proto.malformed",
        StrCat("unknown message type '", type, "'")));
  }
  if (reply.StringOr("type", "") == "ERROR") {
    metrics_->counter("svc.rpc.errors")->Increment();
  }
  metrics_->histogram("svc.rpc.seconds")->Observe(sw.ElapsedSeconds());
  if (options_.tracer != nullptr) {
    TraceSpan span;
    span.name = StrCat("rpc:", type);
    span.category = "rpc";
    span.parent_id = -1;
    span.machine = -1;
    span.slot = static_cast<int>(request.IntOr("session", 0));
    span.start_seconds = start_wall;
    span.duration_seconds = sw.ElapsedSeconds();
    options_.tracer->AddSpan(std::move(span));
  }
  return reply;
}

Result<std::string> CumulonService::TenantForRequest(
    const JsonValue& request) const {
  const int64_t session = request.IntOr("session", 0);
  if (session <= 0) {
    return TypedError(StatusCode::kInvalidArgument, "proto.malformed",
                      "request is missing 'session' (send HELLO first)");
  }
  return sessions_.TenantOf(session);
}

JsonValue CumulonService::HandleHello(const JsonValue& request) {
  const int version = static_cast<int>(request.IntOr("v", 0));
  const std::string token = request.StringOr("token", "");
  auto session = sessions_.Open(version, token);
  if (!session.ok()) return EncodeError(session.status());
  auto tenant = sessions_.TenantOf(*session);
  JsonValue reply = JsonValue::Object();
  reply.Set("type", "HELLO_OK")
      .Set("session", *session)
      .Set("tenant", tenant.ok() ? *tenant : std::string())
      .Set("v", kProtocolVersion)
      .Set("server", "cumulon-svc");
  return reply;
}

JsonValue CumulonService::HandleSubmit(const JsonValue& request) {
  // The draining gate comes before session resolution: drain closes every
  // session, and a late submitter should hear "draining", not that its
  // session evaporated.
  {
    MutexLock lock(&mu_);
    if (draining_) {
      metrics_->counter("svc.submit.rejected.draining")->Increment();
      return EncodeError(TypedError(
          StatusCode::kFailedPrecondition, "draining",
          "daemon is draining; submissions are closed"));
    }
  }
  auto tenant = TenantForRequest(request);
  if (!tenant.ok()) return EncodeError(tenant.status());
  SubmitRequest submit;
  submit.tenant = *tenant;
  submit.name = request.StringOr("name", "");
  submit.workload = request.StringOr("workload", "");
  submit.deadline_seconds = request.NumberOr("deadline_seconds", 0.0);
  submit.budget_dollars = request.NumberOr("budget_dollars", 0.0);
  if (submit.workload.empty()) {
    return EncodeError(TypedError(StatusCode::kInvalidArgument,
                                  "proto.malformed",
                                  "SUBMIT is missing 'workload'"));
  }
  return SubmitInternal(submit, /*restored=*/false);
}

Result<AdmissionEstimate> CumulonService::EstimateFor(
    const std::string& workload) {
  {
    MutexLock lock(&mu_);
    auto it = estimates_.find(workload);
    if (it != estimates_.end()) return it->second;
  }
  auto spec = MakeCatalogWorkload(workload, options_.scale, options_.tile_dim);
  if (!spec.ok()) {
    return TypedError(StatusCode::kNotFound, "workload.unknown",
                      spec.status().message());
  }
  // Computed outside mu_ (a full predictor simulation); concurrent first
  // requests of one class may duplicate the work but agree on the result —
  // the predictor is deterministic.
  auto estimate =
      EstimateForAdmission(*spec, engine_.config(), options_.predictor);
  if (!estimate.ok()) return estimate.status();
  MutexLock lock(&mu_);
  estimates_[workload] = *estimate;
  return *estimate;
}

JsonValue CumulonService::SubmitInternal(const SubmitRequest& request,
                                         bool restored) {
  Stopwatch admission_sw;
  auto estimate = EstimateFor(request.workload);
  if (!estimate.ok()) return EncodeError(estimate.status());

  const Status quota = sessions_.AdmitCheck(request.tenant,
                                            estimate->dollars);
  if (!quota.ok()) {
    MutexLock lock(&mu_);
    const int64_t id = next_plan_id_++;
    PlanRecord& rec = records_[id];
    rec.id = id;
    rec.tenant = request.tenant;
    rec.request = request;
    rec.estimate = *estimate;
    rec.state = SvcPlanState::kRejected;
    rec.terminal = true;
    rec.reject_status = quota;
    rec.submit_wall_seconds = wall_clock_.ElapsedSeconds();
    rec.finish_wall_seconds = rec.submit_wall_seconds;
    metrics_->counter(restored ? "svc.restore.rejected"
                               : "svc.submit.rejected.quota")
        ->Increment();
    return EncodeError(quota, id);
  }

  auto spec = MakeCatalogWorkload(request.workload, options_.scale,
                                  options_.tile_dim);
  if (!spec.ok()) return EncodeError(spec.status());

  int64_t id = 0;
  {
    MutexLock lock(&mu_);
    id = next_plan_id_++;
  }
  Submission submission;
  submission.name = request.name.empty()
                        ? StrCat(request.workload, "-", id)
                        : request.name;
  submission.tenant = request.tenant;
  submission.deadline_seconds = request.deadline_seconds;
  submission.budget_dollars = request.budget_dollars;
  submission.estimate = *estimate;
  // Namespace this plan's temporaries so thousands of concurrent plans
  // sharing one store never collide on intermediate names.
  LoweringOptions lowering = options_.predictor.lowering;
  lowering.temp_prefix = StrCat("svc", id, "_tmp");
  auto lowered = PrepareProgram(*spec, &store_, lowering);
  if (!lowered.ok()) return EncodeError(lowered.status(), id);
  if (options_.plan_mutator_for_test) {
    options_.plan_mutator_for_test(&lowered->plan);
  }

  // SUBMIT-time static verification, ahead of admission: the lowered plan
  // must pass the full verifier suite — dependency order against the
  // catalog inputs as the resident set, split arithmetic, and the
  // lowering-stamped determinism contract. A broken plan is rejected here
  // with its typed verify.* reason on the wire (docs/service.md). Tile
  // coverage is checked later, when the manager's executor builds each
  // job to run it; a gap fails the plan before that job runs any task.
  {
    PlanVerifyOptions verify_options;
    verify_options.check_external = true;
    for (const TiledMatrix& input : spec->inputs) {
      verify_options.external_matrices.insert(input.name);
    }
    verify_options.require_determinism = true;
    const Status verified =
        VerifyPlanStatus(lowered->plan, verify_options, metrics_,
                         options_.tracer);
    if (!verified.ok()) {
      MutexLock lock(&mu_);
      PlanRecord& rec = records_[id];
      rec.id = id;
      rec.tenant = request.tenant;
      rec.request = request;
      rec.estimate = *estimate;
      rec.state = SvcPlanState::kRejected;
      rec.terminal = true;
      rec.reject_status = verified;
      rec.submit_wall_seconds = wall_clock_.ElapsedSeconds();
      rec.finish_wall_seconds = rec.submit_wall_seconds;
      metrics_->counter(restored ? "svc.restore.rejected"
                                 : "svc.submit.rejected.verify")
          ->Increment();
      return EncodeError(verified, id);
    }
  }
  submission.plan = std::move(lowered->plan);

  auto mgr_id = manager_.Submit(std::move(submission));
  metrics_->histogram("svc.submit.admission_seconds")
      ->Observe(admission_sw.ElapsedSeconds());

  MutexLock lock(&mu_);
  PlanRecord& rec = records_[id];
  rec.id = id;
  rec.tenant = request.tenant;
  rec.request = request;
  rec.estimate = *estimate;
  rec.submit_wall_seconds = wall_clock_.ElapsedSeconds();
  if (!mgr_id.ok()) {
    // The manager's admission verdicts, surfaced as typed reasons. A
    // verify.* rejection already carries its typed "[reason] " prefix —
    // pass it through untouched (its message may mention "budget").
    const bool is_verify =
        mgr_id.status().message().rfind("[verify.", 0) == 0;
    const bool budget =
        mgr_id.status().message().find("budget") != std::string::npos;
    const Status typed =
        is_verify
            ? mgr_id.status()
            : TypedError(mgr_id.status().code(),
                         budget ? "admission.budget" : "admission.deadline",
                         mgr_id.status().message());
    rec.state = SvcPlanState::kRejected;
    rec.terminal = true;
    rec.reject_status = typed;
    rec.finish_wall_seconds = rec.submit_wall_seconds;
    metrics_->counter(restored ? "svc.restore.rejected"
                               : "svc.submit.rejected.admission")
        ->Increment();
    return EncodeError(typed, id);
  }
  rec.state = SvcPlanState::kQueued;
  rec.mgr_id = *mgr_id;
  mgr_to_svc_[*mgr_id] = id;
  sessions_.OnAdmitted(request.tenant, estimate->dollars);
  metrics_->counter(restored ? "svc.restore.restored" : "svc.submit.accepted")
      ->Increment();
  metrics_->gauge("svc.plans.inflight")->Set(InflightLocked());

  JsonValue reply = JsonValue::Object();
  reply.Set("type", "SUBMIT_OK")
      .Set("plan", id)
      .Set("name", submission.name)
      .Set("estimate_seconds", estimate->seconds)
      .Set("estimate_dollars", estimate->dollars);
  return reply;
}

Result<CumulonService::PlanRecord> CumulonService::FindPlan(
    int64_t plan_id, const std::string& tenant) const {
  MutexLock lock(&mu_);
  auto it = records_.find(plan_id);
  if (it == records_.end()) {
    return TypedError(StatusCode::kNotFound, "plan.unknown",
                      StrCat("no plan with id ", plan_id));
  }
  if (it->second.tenant != tenant) {
    return TypedError(StatusCode::kFailedPrecondition, "plan.foreign",
                      StrCat("plan ", plan_id, " belongs to another tenant"));
  }
  return it->second;
}

JsonValue CumulonService::HandlePoll(const JsonValue& request) {
  auto tenant = TenantForRequest(request);
  if (!tenant.ok()) return EncodeError(tenant.status());
  const int64_t plan = request.IntOr("plan", 0);
  const int64_t cursor = request.IntOr("cursor", 0);
  auto rec = FindPlan(plan, *tenant);
  if (!rec.ok()) return EncodeError(rec.status(), plan);
  JsonValue reply = JsonValue::Object();
  reply.Set("type", "POLL_OK")
      .Set("plan", plan)
      .Set("state", SvcPlanStateName(rec->state))
      .Set("cursor", rec->cursor)
      .Set("changed", rec->cursor != cursor);
  if (rec->terminal) {
    reply.Set("seconds",
              rec->finish_wall_seconds - rec->submit_wall_seconds)
        .Set("estimate_seconds", rec->estimate.seconds)
        .Set("estimate_dollars", rec->estimate.dollars);
    if (rec->state == SvcPlanState::kRejected) {
      reply.Set("reason", ErrorReason(rec->reject_status))
          .Set("message", ErrorText(rec->reject_status));
    } else {
      reply.Set("queue_wait_seconds", rec->outcome.queue_wait_seconds())
          .Set("sim_seconds", rec->outcome.stats.total_seconds)
          .Set("deadline_met", rec->outcome.deadline_met);
      if (!rec->outcome.status.ok()) {
        reply.Set("message", rec->outcome.status.message());
      }
    }
  }
  return reply;
}

JsonValue CumulonService::HandleResult(const JsonValue& request) {
  auto tenant = TenantForRequest(request);
  if (!tenant.ok()) return EncodeError(tenant.status());
  const int64_t plan = request.IntOr("plan", 0);
  auto rec = FindPlan(plan, *tenant);
  if (!rec.ok()) return EncodeError(rec.status(), plan);
  if (!rec->terminal) {
    return EncodeError(
        TypedError(StatusCode::kFailedPrecondition, "plan.not_terminal",
                   StrCat("plan ", plan, " is still ",
                          SvcPlanStateName(rec->state))),
        plan);
  }
  JsonValue reply = JsonValue::Object();
  reply.Set("type", "RESULT_OK")
      .Set("plan", plan)
      .Set("state", SvcPlanStateName(rec->state))
      .Set("name", rec->outcome.name.empty() ? rec->request.name
                                             : rec->outcome.name)
      .Set("seconds", rec->finish_wall_seconds - rec->submit_wall_seconds)
      .Set("estimate_seconds", rec->estimate.seconds)
      .Set("estimate_dollars", rec->estimate.dollars);
  if (rec->state == SvcPlanState::kRejected) {
    reply.Set("reason", ErrorReason(rec->reject_status))
        .Set("message", ErrorText(rec->reject_status));
  } else {
    reply.Set("queue_wait_seconds", rec->outcome.queue_wait_seconds())
        .Set("sim_seconds", rec->outcome.stats.total_seconds)
        .Set("deadline_met", rec->outcome.deadline_met)
        .Set("bytes_read", rec->outcome.stats.bytes_read)
        .Set("bytes_written", rec->outcome.stats.bytes_written)
        .Set("total_tasks", rec->outcome.stats.total_tasks);
    if (!rec->outcome.status.ok()) {
      reply.Set("message", rec->outcome.status.message());
    }
  }
  return reply;
}

JsonValue CumulonService::HandleCancel(const JsonValue& request) {
  auto tenant = TenantForRequest(request);
  if (!tenant.ok()) return EncodeError(tenant.status());
  const int64_t plan = request.IntOr("plan", 0);
  auto rec = FindPlan(plan, *tenant);
  if (!rec.ok()) return EncodeError(rec.status(), plan);
  if (rec->terminal) {
    return EncodeError(
        TypedError(StatusCode::kFailedPrecondition, "plan.terminal",
                   StrCat("plan ", plan, " already finished as ",
                          SvcPlanStateName(rec->state))),
        plan);
  }
  const Status st = manager_.Cancel(rec->mgr_id);
  if (!st.ok() && st.code() != StatusCode::kFailedPrecondition) {
    return EncodeError(st, plan);
  }
  // FailedPrecondition = the plan finished between our lookup and the
  // cancel; the reaper is about to absorb the terminal outcome either way.
  metrics_->counter("svc.cancelled")->Increment();
  JsonValue reply = JsonValue::Object();
  reply.Set("type", "CANCEL_OK").Set("plan", plan);
  return reply;
}

JsonValue CumulonService::HandleStats(const JsonValue&) {
  int queued = 0, running = 0, done = 0, failed = 0, cancelled = 0,
      rejected = 0;
  bool draining = false;
  int64_t persisted = 0;
  {
    MutexLock lock(&mu_);
    for (const auto& [id, rec] : records_) {
      switch (rec.state) {
        case SvcPlanState::kQueued: ++queued; break;
        case SvcPlanState::kRunning: ++running; break;
        case SvcPlanState::kDone: ++done; break;
        case SvcPlanState::kFailed: ++failed; break;
        case SvcPlanState::kCancelled: ++cancelled; break;
        case SvcPlanState::kRejected: ++rejected; break;
      }
    }
    draining = draining_;
    persisted = persisted_plans_;
  }
  const FleetState fleet = controller_->fleet();
  JsonValue reply = JsonValue::Object();
  reply.Set("type", "STATS_OK")
      .Set("queued", queued)
      .Set("running", running)
      .Set("completed", done)
      .Set("failed", failed)
      .Set("cancelled", cancelled)
      .Set("rejected", rejected)
      .Set("inflight", queued + running)
      .Set("restored", restored_plans_)
      .Set("persisted", persisted)
      .Set("draining", draining)
      .Set("sessions", sessions_.open_sessions())
      .Set("fleet_machines", fleet.machines)
      .Set("fleet_spot", fleet.spot_machines)
      .Set("fleet_slots", manager_.total_slots());
  return reply;
}

JsonValue CumulonService::HandleDrain(const JsonValue&) {
  {
    MutexLock lock(&mu_);
    if (drained_) {  // idempotent once complete
      JsonValue reply = JsonValue::Object();
      reply.Set("type", "DRAIN_OK").Set("persisted", persisted_plans_);
      return reply;
    }
    if (draining_) {
      return EncodeError(TypedError(StatusCode::kFailedPrecondition,
                                    "draining",
                                    "drain already in progress"));
    }
    draining_ = true;
  }

  // First half: pull back everything still queued and persist the specs.
  const std::vector<int64_t> cancelled = manager_.CancelAllQueued();
  std::vector<SubmitRequest> persisted;
  {
    MutexLock lock(&mu_);
    const double now = wall_clock_.ElapsedSeconds();
    for (const int64_t mgr_id : cancelled) {
      auto map_it = mgr_to_svc_.find(mgr_id);
      if (map_it == mgr_to_svc_.end()) continue;
      auto rec_it = records_.find(map_it->second);
      if (rec_it == records_.end() || rec_it->second.terminal) continue;
      PlanRecord& rec = rec_it->second;
      rec.state = SvcPlanState::kCancelled;
      rec.terminal = true;
      rec.finish_wall_seconds = now;
      ++rec.cursor;
      persisted.push_back(rec.request);
      sessions_.OnFinished(rec.tenant);
    }
    persisted_plans_ = static_cast<int64_t>(persisted.size());
    metrics_->gauge("svc.plans.inflight")->Set(InflightLocked());
  }

  Status persist_status;
  if (!persisted.empty() && !options_.state_dir.empty()) {
    persist_status = WriteFileDurably(options_.state_dir, DrainFilePath(),
                                      EncodeQueuedPlans(persisted));
  }
  metrics_->counter("svc.drain.persisted")
      ->Add(static_cast<int64_t>(persisted.size()));

  // Second half: wait for the in-flight plans, then shut the loops down.
  manager_.Drain();
  StopReaper();
  PollOutcomes();
  sessions_.CloseAll();
  {
    MutexLock lock(&mu_);
    drained_ = true;
  }
  if (!persist_status.ok()) return EncodeError(persist_status);
  JsonValue reply = JsonValue::Object();
  reply.Set("type", "DRAIN_OK")
      .Set("persisted", static_cast<int64_t>(persisted.size()));
  return reply;
}

void CumulonService::PollOutcomes() {
  std::vector<std::pair<int64_t, int64_t>> active;  // svc id, manager id
  {
    MutexLock lock(&mu_);
    for (const auto& [id, rec] : records_) {
      if (!rec.terminal && rec.mgr_id > 0) active.emplace_back(id, rec.mgr_id);
    }
  }
  for (const auto& [id, mgr_id] : active) {
    auto outcome = manager_.TryGetOutcome(mgr_id);
    if (outcome.ok()) {
      MutexLock lock(&mu_);
      auto it = records_.find(id);
      if (it == records_.end() || it->second.terminal) continue;
      PlanRecord& rec = it->second;
      rec.outcome = std::move(*outcome);
      rec.terminal = true;
      rec.finish_wall_seconds = wall_clock_.ElapsedSeconds();
      switch (rec.outcome.state) {
        case PlanState::kDone: rec.state = SvcPlanState::kDone; break;
        case PlanState::kCancelled:
          rec.state = SvcPlanState::kCancelled;
          break;
        default: rec.state = SvcPlanState::kFailed; break;
      }
      ++rec.cursor;
      sessions_.OnFinished(rec.tenant);
      metrics_->histogram("svc.plan.completion_seconds")
          ->Observe(rec.finish_wall_seconds - rec.submit_wall_seconds);
      metrics_->gauge("svc.plans.inflight")->Set(InflightLocked());
      continue;
    }
    auto state = manager_.QueryState(mgr_id);
    if (state.ok() && *state == PlanState::kRunning) {
      MutexLock lock(&mu_);
      auto it = records_.find(id);
      if (it != records_.end() &&
          it->second.state == SvcPlanState::kQueued) {
        it->second.state = SvcPlanState::kRunning;
        ++it->second.cursor;
      }
    }
  }
}

void CumulonService::ReaperLoop() {
  const auto interval = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(
          std::max(options_.reaper_interval_seconds, 1e-3)));
  double since_elastic = 0.0;
  while (true) {
    {
      MutexLock lock(&reaper_mu_);
      if (stop_reaper_) break;
      reaper_cv_.WaitFor(&reaper_mu_, interval);
      if (stop_reaper_) break;
    }
    PollOutcomes();
    since_elastic += options_.reaper_interval_seconds;
    if (options_.enable_elastic &&
        since_elastic + 1e-9 >= options_.elastic_interval_seconds) {
      since_elastic = 0.0;
      controller_->Tick(&manager_);
      metrics_->gauge("svc.fleet.slots")->Set(controller_->slots());
    }
  }
}

void CumulonService::StopReaper() {
  {
    MutexLock lock(&reaper_mu_);
    stop_reaper_ = true;
    reaper_cv_.NotifyAll();
  }
  if (reaper_.joinable()) reaper_.join();
}

int CumulonService::InflightLocked() const {
  int inflight = 0;
  for (const auto& [id, rec] : records_) {
    if (!rec.terminal) ++inflight;
  }
  return inflight;
}

std::string CumulonService::DrainFilePath() const {
  return StrCat(options_.state_dir, "/queued_plans.json");
}

void CumulonService::RestoreFromDisk() {
  if (options_.state_dir.empty()) return;
  const std::string path = DrainFilePath();
  // A leftover temporary is a drain that crashed before its rename: the
  // drain file beside it, if any, is the last complete one.
  std::remove(TempPath(path).c_str());
  std::ifstream in(path);
  if (!in) return;  // no drain file: fresh start
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  auto requests = DecodeQueuedPlans(text);
  if (!requests.ok()) {
    CUMULON_LOG(Warning) << "ignoring unreadable drain file " << path << ": "
                         << requests.status();
    return;
  }
  for (const SubmitRequest& request : *requests) {
    // The full admission path again: the restored daemon re-decides with
    // the same estimates, quotas and manager state it would apply to a
    // fresh SUBMIT — decisions are reproducible across the restart.
    const JsonValue reply = SubmitInternal(request, /*restored=*/true);
    if (reply.StringOr("type", "") == "SUBMIT_OK") ++restored_plans_;
  }
  std::remove(path.c_str());
}

}  // namespace cumulon
