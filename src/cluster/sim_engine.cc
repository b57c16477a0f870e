#include "cluster/sim_engine.h"

#include <algorithm>
#include <vector>

#include "cloud/revocation.h"
#include "common/logging.h"
#include "common/strings.h"
#include "cost/cost_model.h"

namespace cumulon {

SimEngine::SimEngine(const ClusterConfig& config,
                     const SimEngineOptions& options)
    : config_(config), options_(options), rng_(options.seed) {
  CUMULON_CHECK_GT(config_.num_machines, 0);
  CUMULON_CHECK_GT(config_.slots_per_machine, 0);
  if (options_.enable_tile_cache) {
    caches_ = MakeNodeTileCaches(config_, options_.cache_bytes_per_node);
  }
}

double SimEngine::TaskDuration(const TaskCost& cost, bool local_read,
                               double* stall_seconds) const {
  const MachineProfile& m = config_.machine;
  const int s = config_.slots_per_machine;

  // Slots oversubscribing cores share them.
  const double cpu_slowdown =
      std::max(1.0, static_cast<double>(s) / m.cores);
  const double cpu =
      cost.cpu_seconds_ref / m.cpu_gflops * cpu_slowdown;

  // All slots of a machine share its disk and NIC; we charge each task the
  // worst-case 1/s share, which is what a fully loaded wave experiences.
  const double disk_bw = m.disk_bytes_per_sec() / s;
  const double net_bw = m.net_bytes_per_sec() / s;

  // Bytes expected from the node-local tile cache never touch disk or
  // NIC; only the residual miss bytes are charged below.
  const double uncached_read = static_cast<double>(
      std::max<int64_t>(cost.bytes_read - cost.bytes_read_cached, 0));
  // A local task reads them from its own disk, a non-local one over the
  // network. Shuffle traffic always crosses the network; spills hit the
  // local disk exactly once (MapReduce-baseline cost fields).
  const double local_bytes = local_read ? uncached_read : 0.0;
  const double remote_bytes = (local_read ? 0.0 : uncached_read) +
                              static_cast<double>(cost.shuffle_bytes);
  const double read_time = local_bytes / disk_bw + remote_bytes / net_bw;

  // First replica to local disk, the rest pipelined over the network.
  const double extra_replicas =
      static_cast<double>(std::max(0, options_.replication - 1));
  const double write_time = cost.bytes_written / disk_bw +
                            extra_replicas * cost.bytes_written / net_bw +
                            cost.local_spill_bytes / disk_bw;

  // The prefetch pipeline overlaps DFS reads with compute; only the
  // residual read time extends the task. Startup and write-back are
  // serial either way.
  if (stall_seconds != nullptr) {
    *stall_seconds =
        ResidualStallSeconds(cpu, read_time, options_.io_overlap_fraction);
  }
  return options_.task_startup_seconds +
         PipelinedPhaseSeconds(cpu, read_time,
                               options_.io_overlap_fraction) +
         write_time;
}

int DrawTaskAttempts(Rng* rng, double failure_probability, int max_attempts) {
  int attempt = 1;
  while (rng->NextDouble() < failure_probability) {
    if (++attempt > max_attempts) return 0;
  }
  return attempt;
}

Result<JobStats> SimEngine::RunJob(const JobSpec& job) {
  // One simulated job at a time: concurrent plans' virtual clocks cannot
  // interleave, so runs serialize and contention is expressed through the
  // slot-share restriction below.
  MutexLock run_lock(&run_mu_);

  if (job.cancel != nullptr && job.cancel->load(std::memory_order_relaxed)) {
    return Status::Cancelled(StrCat("job '", job.name, "' cancelled"));
  }

  const int machines = config_.num_machines;
  int slots = config_.slots_per_machine;
  // Under a slot share the plan only gets part of the cluster; model that
  // as proportionally fewer slots per machine (at least one in total,
  // rounded up so a share never silently widens). Read after run_mu_, so
  // the share is the one in force when this job's turn comes.
  if (job.slot_share != nullptr) {
    const int allowed =
        std::clamp(job.slot_share->load(), 1, config_.total_slots());
    slots = std::max(1, (allowed + machines - 1) / machines);
  }

  Tracer* tracer =
      options_.tracer != nullptr ? options_.tracer : GlobalTracer();
  // Spans of this job start after everything already on the timeline; the
  // virtual clock below restarts at 0 for every job.
  const double trace_t0 = tracer != nullptr ? tracer->time_offset() : 0.0;

  JobStats stats;
  stats.num_tasks = static_cast<int>(job.tasks.size());
  stats.waves = stats.num_tasks == 0
                    ? 0
                    : (stats.num_tasks + config_.total_slots() - 1) /
                          config_.total_slots();
  stats.task_runs.reserve(job.tasks.size());

  // The real engine's schedule: every task on the machine PlaceTasks gives
  // it, started in index order by the earliest-free of machines x slots
  // lanes (its shared FIFO worker pool). A lane is not tied to a machine.
  // A slot share narrows the lanes but not the placement, which the real
  // engine also makes from the whole cluster's slots.
  const std::vector<int> placement = PlaceTasks(
      job, machines, config_.slots_per_machine, options_.locality_aware);
  std::vector<double> lane_free(static_cast<size_t>(machines) * slots, 0.0);

  // Revocations are read on the controller's clock, which this job enters
  // at `origin`. Without a controller no machine is ever revoked, and the
  // schedule is the revocation-free one.
  RevocationController* ctrl = options_.revocation;
  const double origin = ctrl != nullptr ? ctrl->origin_seconds() : 0.0;
  auto revoked = [&](int machine, double job_seconds) {
    return ctrl != nullptr && ctrl->IsRevokedAt(machine, origin + job_seconds);
  };
  // Moves a task off a revoked machine the way the real engine's worker
  // does; false when the whole fleet is gone.
  auto relocate = [&](int* machine, size_t task, double abs_seconds) {
    *machine = ctrl->FallbackMachine(*machine, task, machines, abs_seconds);
    return *machine >= 0;
  };
  auto fleet_gone = [](const Task& task) {
    return Status::Internal(
        StrCat("task '", task.name,
               "' has no machine to run on: whole fleet revoked"));
  };
  std::vector<int> kills_per_machine(machines, 0);
  std::vector<double> wasted_draws;

  for (size_t i = 0; i < job.tasks.size(); ++i) {
    if (job.cancel != nullptr &&
        job.cancel->load(std::memory_order_relaxed)) {
      return Status::Cancelled(
          StrCat("job '", job.name, "' cancelled mid-schedule"));
    }
    const Task& task = job.tasks[i];
    const int lane = static_cast<int>(
        std::min_element(lane_free.begin(), lane_free.end()) -
        lane_free.begin());
    double start = lane_free[lane];
    int machine = placement[i];
    // No attempt starts on a machine that is already revoked.
    if (revoked(machine, start) && !relocate(&machine, i, origin + start)) {
      return fleet_gone(task);
    }
    bool local = RunsLocal(task, machine);

    double modeled_stall = 0.0;
    const double base_duration =
        TaskDuration(task.cost, local, &modeled_stall);
    double duration = base_duration;
    if (options_.noise_sigma > 0.0) {
      // Lognormal with mean 1: mu = -sigma^2/2.
      const double sigma = options_.noise_sigma;
      duration *= rng_.NextLogNormal(-0.5 * sigma * sigma, sigma);
      if (options_.speculative_execution) {
        // Backup attempt launched after the task overruns its expectation;
        // the first finisher wins.
        const double backup = base_duration + options_.task_startup_seconds +
                              base_duration *
                                  rng_.NextLogNormal(-0.5 * sigma * sigma,
                                                     sigma);
        duration = std::min(duration, backup);
      }
    }

    // Failed attempts waste their whole duration and rerun; the fourth
    // consecutive failure fails the job, as in Hadoop.
    constexpr int kMaxTaskAttempts = 4;
    int attempts = 1;
    if (options_.task_failure_probability > 0.0) {
      attempts = DrawTaskAttempts(&rng_, options_.task_failure_probability,
                                  kMaxTaskAttempts);
      if (attempts == 0) {
        return Status::Internal(StrCat("task '", task.name, "' failed ",
                                       kMaxTaskAttempts, " attempts"));
      }
      duration *= attempts;
    }

    // Noise and failure rerolls are a multiplier on the modeled duration;
    // preserve it across revocation re-placements so the task keeps its
    // drawn fate without consuming new randomness.
    const double ratio = base_duration > 0.0 ? duration / base_duration : 1.0;

    // When the machine dies under the attempt, kill it at the instant,
    // charge the elapsed time as waste, and rerun on the same lane on the
    // machine FallbackMachine picks at that instant.
    while (revoked(machine, start + duration)) {
      const double death = ctrl->RevokedAtSeconds(machine);
      const double kill_time = std::max(start, death - origin);
      const double wasted = kill_time - start;
      ++stats.rescheduled_tasks;
      stats.revoked_wasted_seconds += wasted;
      stats.total_task_seconds += wasted;
      wasted_draws.push_back(wasted);
      ++kills_per_machine[machine];
      ++attempts;
      start = kill_time;
      if (!relocate(&machine, i, std::max(death, origin + start))) {
        return fleet_gone(task);
      }
      local = RunsLocal(task, machine);
      duration = TaskDuration(task.cost, local, &modeled_stall) * ratio;
    }
    lane_free[lane] = start + duration;

    stats.total_task_seconds += duration;
    stats.bytes_read += task.cost.bytes_read;
    stats.bytes_written += task.cost.bytes_written;
    stats.shuffle_bytes += task.cost.shuffle_bytes;
    stats.bytes_read_cached += task.cost.bytes_read_cached;
    if (!local) ++stats.num_non_local_tasks;
    stats.stall_seconds += modeled_stall;
    TaskRunInfo run;
    run.machine = machine;
    run.slot = lane;
    run.start_seconds = start;
    run.duration_seconds = duration;
    run.local = local;
    run.stall_seconds = modeled_stall;
    run.attempts = std::max(attempts, 1);
    stats.task_runs.push_back(run);

    if (tracer != nullptr) {
      TraceSpan span;
      span.name = job.plan_tag.empty() ? task.name
                                       : StrCat(job.plan_tag, "/", task.name);
      span.category = "task";
      span.parent_id = job.trace_parent_span;
      span.machine = machine;
      span.slot = lane;
      span.start_seconds = trace_t0 + start;
      span.duration_seconds = duration;
      // The lane was idle until `start`, so in a job submitted at virtual
      // time 0 the start time IS the task's queue wait.
      span.args = {{"queue_wait_seconds", start},
                   {"bytes_read", static_cast<double>(task.cost.bytes_read)},
                   {"bytes_written",
                    static_cast<double>(task.cost.bytes_written)},
                   {"bytes_read_cached",
                    static_cast<double>(task.cost.bytes_read_cached)},
                   {"shuffle_bytes",
                    static_cast<double>(task.cost.shuffle_bytes)},
                   {"stall_seconds", modeled_stall},
                   {"local", local ? 1.0 : 0.0}};
      if (run.attempts > 1) {
        span.args.emplace_back("attempts", static_cast<double>(run.attempts));
      }
      if (job.plan_id >= 0) {
        span.args.emplace_back("plan", static_cast<double>(job.plan_id));
      }
      tracer->AddSpan(std::move(span));
    }
  }

  const double makespan =
      lane_free.empty() ? 0.0
                        : *std::max_element(lane_free.begin(), lane_free.end());
  stats.duration_seconds = makespan;

  if (ctrl != nullptr) {
    // Observe every revocation whose instant fell inside this job's window
    // (including instants an earlier, shorter job slid past): drop the dead
    // node's tile cache, bump the loss stats, and emit a zero-width
    // "revoke" marker on the machine's lane. ClaimFired gates each machine
    // to exactly one observation across the controller's lifetime.
    for (int mch = 0; mch < machines; ++mch) {
      if (!revoked(mch, makespan)) continue;  // not lost yet (or never)
      if (!ctrl->ClaimFired(mch)) continue;   // an earlier job observed it
      ++stats.revoked_machines;
      if (caches_ != nullptr) caches_->ClearNode(mch);
      if (tracer != nullptr) {
        TraceSpan span;
        const std::string marker = StrCat("revoke:m", mch);
        span.name = job.plan_tag.empty()
                        ? marker
                        : StrCat(job.plan_tag, "/", marker);
        span.category = "revoke";
        span.parent_id = job.trace_parent_span;
        span.machine = mch;
        span.slot = 0;
        span.start_seconds =
            trace_t0 + std::max(ctrl->RevokedAtSeconds(mch) - origin, 0.0);
        span.duration_seconds = 0.0;
        span.args = {{"machine", static_cast<double>(mch)},
                     {"tasks_rescheduled",
                      static_cast<double>(kills_per_machine[mch])}};
        if (job.plan_id >= 0) {
          span.args.emplace_back("plan", static_cast<double>(job.plan_id));
        }
        tracer->AddSpan(std::move(span));
      }
    }
    // Schedule time is cumulative engine-busy time: the next job's virtual
    // clock starts where this one's makespan left off.
    ctrl->AdvanceOrigin(makespan);
  }

  if (tracer != nullptr) tracer->AdvanceTime(makespan);

  if (options_.metrics != nullptr) {
    MetricsRegistry* m = options_.metrics;
    m->counter("engine.jobs")->Increment();
    m->counter("engine.tasks")->Add(stats.num_tasks);
    m->counter("engine.tasks.nonlocal")->Add(stats.num_non_local_tasks);
    Histogram* task_seconds = m->histogram("engine.task.seconds");
    Histogram* queue_wait = m->histogram("engine.task.queue_wait_seconds");
    Histogram* stall = m->histogram("engine.task.stall_seconds");
    for (const TaskRunInfo& run : stats.task_runs) {
      task_seconds->Observe(run.duration_seconds);
      queue_wait->Observe(run.start_seconds);
      stall->Observe(run.stall_seconds);
    }
    if (stats.revoked_machines > 0 || stats.rescheduled_tasks > 0) {
      m->counter("cluster.revoked.machines")->Add(stats.revoked_machines);
      m->counter("cluster.revoked.tasks")->Add(stats.rescheduled_tasks);
      Histogram* wasted = m->histogram("cluster.revoked.wasted_seconds");
      for (double w : wasted_draws) wasted->Observe(w);
    }
  }
  return stats;
}

}  // namespace cumulon
