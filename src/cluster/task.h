#ifndef CUMULON_CLUSTER_TASK_H_
#define CUMULON_CLUSTER_TASK_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"

namespace cumulon {

/// Declared resource demands of one task, used by the simulator / cost
/// model to derive its duration on a given machine.
///
/// cpu_seconds_ref is normalized to the *reference machine* (1.0 effective
/// GFLOP/s per core); the engine divides by the target machine's
/// cpu_gflops. The cost model produces these numbers from its calibrated
/// per-tile operation models.
struct TaskCost {
  double cpu_seconds_ref = 0.0;
  int64_t bytes_read = 0;     // DFS reads; local disk when placement matches
  int64_t bytes_written = 0;  // DFS writes; replicated per engine options

  /// Of bytes_read, the bytes expected to be served by the node-local tile
  /// cache (reuse across tasks placed on the same machine). The simulator
  /// charges disk/net time only for the difference. 0 when caching is off.
  int64_t bytes_read_cached = 0;

  // MapReduce-baseline extras (zero for Cumulon's map-only jobs):
  int64_t shuffle_bytes = 0;      // always read over the network
  int64_t local_spill_bytes = 0;  // map-output spill: one local-disk copy
};

/// One schedulable unit of a job: a closure for real execution plus the
/// declared cost for simulation. `work` receives the machine index the task
/// was placed on (so tile reads/writes carry correct locality) and may be
/// empty for simulation-only plans.
struct Task {
  std::string name;
  std::function<Status(int machine)> work;
  TaskCost cost;
  std::vector<int> preferred_machines;  // replica holders of its inputs
};

/// A Cumulon job: a named bag of independent tasks (map-only; the paper's
/// execution model deliberately has no shuffle barrier inside a job).
///
/// The multi-tenant fields below are filled by the executor when the job
/// belongs to a plan running under a WorkloadManager; with their defaults
/// the engines behave exactly as before (exclusive slots, untagged spans).
struct JobSpec {
  std::string name;
  std::vector<Task> tasks;

  /// Identity of the submitting plan. plan_id tags engine metrics/span
  /// args; plan_tag prefixes task span names so concurrent runs are
  /// distinguishable in the Chrome trace export. plan_id < 0 = untagged.
  int64_t plan_id = -1;
  std::string plan_tag;

  /// Slots of the cluster this job may use while other plans run (the
  /// WorkloadManager's share). The sim engine reads it once per job, after
  /// it serializes the job, and simulates on that many slots. The real
  /// engine ignores it: its pool has exactly machines x slots workers, so
  /// the tasks of all plans together never exceed the cluster's slots,
  /// and they are served in FIFO order. Borrowed; null = the whole
  /// cluster.
  const std::atomic<int>* slot_share = nullptr;

  /// Checked before each task is launched: when it flips true the engine
  /// stops launching work and returns Status::Cancelled. The real engine
  /// submits all of a job's tasks at once and waits for those it
  /// submitted, so in practice a cancelled real plan stops between jobs.
  /// Borrowed; null = not cancellable.
  const std::atomic<bool>* cancel = nullptr;

  /// Trace span id of the enclosing job span (Executor::BeginJobTrace);
  /// engines stamp it as every task span's parent so nesting stays correct
  /// when several plans trace concurrently. 0 = let the tracer infer.
  int64_t trace_parent_span = 0;
};

/// Where and when one task ran.
///
/// Concurrency contract: each TaskRunInfo is written by exactly one pool
/// worker (the one executing the task) and read by the RunJob driver only
/// after the job's completion latch observed every task finish — the latch
/// mutex (RealEngine's JobSync) publishes the writes, so no field here
/// needs its own guard. JobSpec is immutable while a job runs; the two
/// borrowed channels that ARE touched concurrently are `slot_share` (an
/// atomic the WorkloadManager rewrites as plans start and finish) and
/// `cancel` (an atomic the submitter flips while engines poll it).
struct TaskRunInfo {
  int machine = -1;
  /// Execution lane: one of the cluster's machines x slots lanes, in both
  /// modes. It is the worker-thread index in real mode and the simulated
  /// worker in sim mode, and it is not tied to `machine`. Trace lanes key
  /// on (machine, slot).
  int slot = 0;
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
  bool local = true;  // were its preferred machines honored?

  /// Time the task spent blocked on tile I/O: measured wait (async awaits
  /// + synchronous Gets) in real mode, the cost model's residual read time
  /// under the configured overlap fraction in sim mode.
  double stall_seconds = 0.0;

  /// Placement attempts this run consumed: 1 on the happy path, +1 for
  /// every retry after a failure or a mid-task machine revocation.
  int attempts = 1;
};

/// Outcome of running a job on an engine.
struct JobStats {
  double duration_seconds = 0.0;      // makespan
  double total_task_seconds = 0.0;    // sum of task durations
  int num_tasks = 0;
  int waves = 0;                      // ceil(tasks / total slots)
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  int64_t shuffle_bytes = 0;
  int num_non_local_tasks = 0;

  // Node-local tile-cache activity during the job: measured hit/miss
  // counts in real mode (engine cache counters), modeled cached bytes in
  // sim mode (sum of TaskCost::bytes_read_cached).
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t bytes_read_cached = 0;

  /// Sum of TaskRunInfo::stall_seconds over the job — how much task time
  /// was I/O wait the prefetch pipeline did not hide.
  double stall_seconds = 0.0;

  // Transient-machine losses observed during the job (cloud/revocation.h):
  // machines whose revocation fired while this job ran, tasks whose
  // in-flight attempt was killed and re-placed on a surviving machine, and
  // the task-seconds those killed attempts had already burned.
  int revoked_machines = 0;
  int rescheduled_tasks = 0;
  double revoked_wasted_seconds = 0.0;

  std::vector<TaskRunInfo> task_runs;
};

}  // namespace cumulon

#endif  // CUMULON_CLUSTER_TASK_H_
