#ifndef CUMULON_COMMON_TASK_IO_STATS_H_
#define CUMULON_COMMON_TASK_IO_STATS_H_

#include <cstdint>

namespace cumulon {

/// Per-thread accounting of the time a task spends blocked on tile IO.
/// The real engine resets the running worker's instance before each task
/// attempt and reads it back afterwards (TaskRunInfo::stall_seconds);
/// stores and the prefetch pipeline add to it wherever a task thread
/// actually waits. Thread-local, so no synchronization is needed — but it
/// also means only waits on the task's own thread are captured, which is
/// exactly the definition of a stall (time the prefetcher failed to hide).
struct TaskIoStats {
  /// Time blocked in TileFuture::Await on fetches that were in flight —
  /// read latency the prefetcher did not (fully) hide.
  double stall_seconds = 0.0;

  /// Time blocked in synchronous reads on the task thread itself: Gets
  /// (prefetch off, or a read that was never hinted) and hinted GetAsync
  /// calls the store resolved before returning (a store without a
  /// prefetch pool, or a cache hit).
  double sync_read_seconds = 0.0;

  int64_t async_awaits = 0;
  int64_t sync_reads = 0;

  void Reset() { *this = TaskIoStats{}; }

  /// All time the task thread spent blocked on tile reads.
  double total_wait_seconds() const {
    return stall_seconds + sync_read_seconds;
  }

  /// The calling thread's instance.
  static TaskIoStats* Current() {
    static thread_local TaskIoStats stats;
    return &stats;
  }
};

}  // namespace cumulon

#endif  // CUMULON_COMMON_TASK_IO_STATS_H_
