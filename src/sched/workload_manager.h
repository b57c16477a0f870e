#ifndef CUMULON_SCHED_WORKLOAD_MANAGER_H_
#define CUMULON_SCHED_WORKLOAD_MANAGER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/engine.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "cost/cost_model.h"
#include "exec/executor.h"
#include "matrix/tile_store.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cumulon {

/// Order in which queued plans are dispatched.
///  - kFifo: submission order (stock Hadoop job queue).
///  - kFairShare: tenant with the least accumulated service time first
///    (FIFO within a tenant), so a heavy tenant cannot starve light ones.
///  - kEdf: earliest effective deadline first, with priority aging —
///    every second a plan waits tightens its effective deadline by 0.1 s,
///    so deadline-less plans (assigned a deadline one hour after their
///    submission) cannot starve.
enum class SchedPolicy { kFifo, kFairShare, kEdf };

const char* SchedPolicyName(SchedPolicy policy);
Result<SchedPolicy> ParseSchedPolicy(const std::string& name);

/// The predictor's estimate of one submission, used by admission control
/// (opt/predictor.h produces one; any estimator works).
struct AdmissionEstimate {
  double seconds = 0.0;
  double dollars = 0.0;
  bool valid = false;  // false = no estimate; admission waves it through
};

/// One plan handed to the manager, with the tenant's constraints.
struct Submission {
  /// Plan tag: names the plan's trace spans.
  std::string name;
  /// Fair-share accounting group; defaults to `name` when empty.
  std::string tenant;
  PhysicalPlan plan;
  /// Wall (or virtual) seconds after submission the plan must finish by;
  /// 0 = no deadline.
  double deadline_seconds = 0.0;
  /// Maximum predicted dollar cost the tenant will pay; 0 = no budget.
  double budget_dollars = 0.0;
  /// Predictor estimate backing the admission decision.
  AdmissionEstimate estimate;
};

enum class PlanState { kQueued, kRunning, kDone, kFailed, kCancelled };

const char* PlanStateName(PlanState state);

/// Terminal record of one admitted plan.
struct PlanOutcome {
  int64_t plan_id = 0;
  std::string name;
  std::string tenant;
  PlanState state = PlanState::kQueued;
  Status status;    // executor status for kFailed/kCancelled
  PlanStats stats;  // empty unless the plan ran to completion
  AdmissionEstimate estimate;

  // Manager-clock timeline (seconds since the manager started; virtual
  // in sim mode, wall in real mode).
  double submit_seconds = 0.0;
  double start_seconds = 0.0;
  double finish_seconds = 0.0;
  double deadline_abs_seconds = 0.0;  // 0 = none
  bool deadline_met = true;

  double queue_wait_seconds() const { return start_seconds - submit_seconds; }
  double turnaround_seconds() const {
    return finish_seconds - submit_seconds;
  }
};

struct WorkloadManagerOptions {
  SchedPolicy policy = SchedPolicy::kFifo;

  /// Plans executing at once; each is simulated on its slot share.
  int max_concurrent_plans = 2;

  /// Reject submissions whose deadline/budget is infeasible given the
  /// predictor's estimate and the current backlog (the paper's constraint
  /// check, applied online per submission). Estimate-less submissions are
  /// always admitted.
  bool admission_control = true;

  /// Manager clock: false = wall clock (real engines); true = virtual —
  /// time advances to each plan's simulated completion (sim engines), so
  /// deadline accounting and the policy's notion of "now" live in the
  /// same clock domain as the predicted durations.
  bool virtual_time = false;

  /// Hold queued submissions until Start() — lets tests and benches load
  /// the whole queue before the policy picks an order.
  bool defer_start = false;

  /// Initial slot total; 0 = the engine's total_slots(). The elastic
  /// fleet controller (sched/elastic.h) resizes it at run time, so a
  /// service can start on a small fleet and grow toward the engine's
  /// configured maximum under backlog.
  int initial_slots = 0;

  /// Template for every plan's executor (real_mode, startup latency,
  /// parallelize_independent_jobs, ...). Its plan_id/plan_tag/slot_share/
  /// cancel fields are overwritten per plan; its metrics/tracer default to
  /// the manager's when null.
  ExecutorOptions executor;

  /// Destination of the sched.* metrics (and, via the executors, the
  /// exec.* ones). Borrowed; the manager owns a private registry when
  /// null.
  MetricsRegistry* metrics = nullptr;

  /// Records one "plan" span per admitted plan (driver row, one lane per
  /// plan id) plus the executors' job/task spans. Borrowed; may be null.
  Tracer* tracer = nullptr;
};

/// Accepts many concurrent plan submissions — each with an optional
/// deadline and dollar budget — and executes them against one shared
/// engine: cost-based admission control at Submit, policy-ordered dispatch
/// onto max_concurrent_plans worker threads, one slot share for every
/// running plan, cooperative cancellation, and per-tenant sched.* metrics.
///
/// This lifts the paper's one-shot time/budget-constrained optimization
/// into an online service: the same predictor estimate that picked the
/// deployment now gates whether a submission can meet its constraints
/// under current load.
///
/// Thread-safe; Submit/Cancel/Wait may be called from any thread.
class WorkloadManager {
 public:
  /// All pointers are borrowed and must outlive the manager.
  WorkloadManager(TileStore* store, Engine* engine,
                  const TileOpCostModel* cost,
                  const WorkloadManagerOptions& options);
  ~WorkloadManager();

  WorkloadManager(const WorkloadManager&) = delete;
  WorkloadManager& operator=(const WorkloadManager&) = delete;

  /// Admission control + enqueue. Returns the plan id, or:
  ///  - ResourceExhausted when the deadline is infeasible under current
  ///    load (message carries the predictor's estimate and the projection)
  ///  - ResourceExhausted when the estimated cost exceeds the budget.
  Result<int64_t> Submit(Submission submission);

  /// Releases the queue when options.defer_start was set. Idempotent.
  void Start();

  /// Requests cancellation: a queued plan is dropped; a running plan stops
  /// at the next task it would launch (on a real engine, in practice at the
  /// next job; see JobSpec::cancel) and resolves to kCancelled. NotFound for
  /// unknown ids; FailedPrecondition if the plan already finished.
  Status Cancel(int64_t plan_id);

  /// Blocks until the plan reaches a terminal state and returns its
  /// outcome. CHECK-fails on unknown ids.
  PlanOutcome Wait(int64_t plan_id);

  /// Nonblocking: the plan's current state. NotFound for unknown ids.
  Result<PlanState> QueryState(int64_t plan_id) const;

  /// Nonblocking: the plan's outcome if it already reached a terminal
  /// state, FailedPrecondition while it is still queued or running,
  /// NotFound for unknown ids. The service daemon's poll/reaper path —
  /// never parks a thread per plan the way Wait does.
  Result<PlanOutcome> TryGetOutcome(int64_t plan_id) const;

  /// Cancels every plan still queued (not yet dispatched to a worker) and
  /// returns their ids. Running plans are untouched — this is the graceful
  /// drain's first half: pull the unstarted work back for persistence,
  /// then Drain() waits only for the in-flight plans.
  std::vector<int64_t> CancelAllQueued();

  /// Waits for everything submitted so far, stops the workers, and
  /// returns all outcomes ordered by plan id. The manager accepts no
  /// further submissions.
  std::vector<PlanOutcome> Drain();

  /// Estimated seconds of queued + running work, spread over the workers —
  /// the demand signal the elastic provisioner (sched/elastic.h) re-plans
  /// the fleet against.
  double BacklogSeconds() const;

  /// Slots of the cluster the manager schedules on: options.initial_slots
  /// (or the engine's total) until the first ResizeSlots.
  int total_slots() const;

  /// Retargets the slot total (the elastic controller's fleet decisions
  /// land here: machines x slots_per_machine) and recomputes the share.
  /// CHECK-fails unless `total_slots` > 0.
  void ResizeSlots(int total_slots);

  /// Slots each running plan's jobs are simulated on: SlotShare of the
  /// slot total over the running plans.
  int slot_share() const { return slot_share_.load(); }

  /// The whole pool when at most one plan runs, else
  /// ceil(total_slots / running_plans).
  static int SlotShare(int total_slots, int running_plans);

  MetricsRegistry* metrics() { return metrics_; }
  int queued_plans() const;

 private:
  /// All PlanEntry fields except `cancel` (atomic, flipped by Cancel while
  /// a worker runs the plan) are guarded by the manager's mu_; the running
  /// worker only touches its entry's submission/plan data, which is
  /// immutable once dispatched.
  struct PlanEntry {
    Submission submission;
    PlanOutcome outcome;
    std::atomic<bool> cancel{false};
    bool terminal = false;
  };

  void WorkerLoop();

  /// Policy step, under mu_: the queued entry to dispatch next, or null.
  PlanEntry* PickNextLocked() CUMULON_REQUIRES(mu_);

  /// Admission projection, under mu_: estimated seconds of queued +
  /// running work ahead of a new submission, spread over the workers.
  double BacklogSecondsLocked() const CUMULON_REQUIRES(mu_);

  double NowSecondsLocked() const CUMULON_REQUIRES(mu_);

  /// Publishes SlotShare(total_slots_, running_) to slot_share_; called
  /// wherever either of them changes.
  void UpdateSlotShareLocked() CUMULON_REQUIRES(mu_);

  void FinishPlanLocked(PlanEntry* entry, PlanState state, Status status,
                        PlanStats stats, double start, double duration)
      CUMULON_REQUIRES(mu_);

  TileStore* store_;
  Engine* engine_;
  const TileOpCostModel* cost_;
  WorkloadManagerOptions options_;
  MetricsRegistry* metrics_;  // options_.metrics or &owned_metrics_
  MetricsRegistry owned_metrics_;

  mutable Mutex mu_{"WorkloadManager::mu_"};
  CondVar work_cv_;      // queue released / new entry / stop
  CondVar terminal_cv_;  // a plan reached a terminal state
  bool started_ CUMULON_GUARDED_BY(mu_);
  bool stopping_ CUMULON_GUARDED_BY(mu_) = false;
  int64_t next_plan_id_ CUMULON_GUARDED_BY(mu_) = 1;
  // admitted, not yet running (FIFO backbone)
  std::deque<int64_t> queue_ CUMULON_GUARDED_BY(mu_);
  std::map<int64_t, std::unique_ptr<PlanEntry>> plans_
      CUMULON_GUARDED_BY(mu_);
  std::map<std::string, double> tenant_service_seconds_
      CUMULON_GUARDED_BY(mu_);
  int running_ CUMULON_GUARDED_BY(mu_) = 0;
  int total_slots_ CUMULON_GUARDED_BY(mu_);
  // Written under mu_ by UpdateSlotShareLocked; every running plan's
  // executor borrows it (ExecutorOptions::slot_share), and SimEngine reads
  // it lock-free at the start of each job.
  std::atomic<int> slot_share_;
  double virtual_now_seconds_ CUMULON_GUARDED_BY(mu_) = 0.0;
  std::chrono::steady_clock::time_point wall_start_;
  std::vector<std::thread> workers_;
};

}  // namespace cumulon

#endif  // CUMULON_SCHED_WORKLOAD_MANAGER_H_
