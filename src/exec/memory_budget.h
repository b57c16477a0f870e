#ifndef CUMULON_EXEC_MEMORY_BUDGET_H_
#define CUMULON_EXEC_MEMORY_BUDGET_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace cumulon {

/// Per-node memory ledger for out-of-core streaming execution. One ledger
/// accounts for every byte a node's tasks pin at once — the standing tile
/// cache reservation, in-flight prefetches, memoized (pinned) operand
/// panels, and task scratch (accumulator) tiles — all weighed as aligned
/// resident footprints (Tile::MemoryBytes). The cap is hard: TryAcquire
/// never lets `used` exceed `budget`; callers that cannot acquire must
/// shed pinned bytes (spill) or fall back to unpinned streaming reads,
/// never overcommit. bench_e19_oom CHECK-enforces peak <= budget.
///
/// Spill activity (panel evictions, re-fetches of previously spilled
/// panels, reads that could not be pinned at all) is counted here too;
/// the executor reads a run's totals into PlanStats and the exec.spill.*
/// metrics when the run ends.
///
/// Thread-safe: one ledger is shared by every task slot on a node.
class MemoryBudget {
 public:
  /// `budget_bytes` <= 0 means unlimited (the ledger still tracks usage).
  explicit MemoryBudget(int64_t budget_bytes)
      : budget_bytes_(budget_bytes) {}

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Reserves `bytes` against the budget. Returns false — changing
  /// nothing — if the reservation would push usage past the budget.
  bool TryAcquire(int64_t bytes);

  /// Returns a reservation made with TryAcquire.
  void Release(int64_t bytes);

  int64_t budget_bytes() const { return budget_bytes_; }
  int64_t used_bytes() const;
  int64_t peak_bytes() const;

  // --- Spill accounting (reported by budget-aware readers) ---

  /// A pinned panel was dropped to make room (its bytes were released).
  void NoteEviction(int64_t bytes);
  /// A previously evicted panel had to be fetched again.
  void NoteRefetch(int64_t bytes);
  /// A read could not be pinned at all and streamed through unpinned.
  void NoteUnpinnedRead(int64_t bytes);

  struct Counters {
    int64_t evictions = 0;
    int64_t evicted_bytes = 0;
    int64_t refetches = 0;
    int64_t refetch_bytes = 0;
    int64_t unpinned_reads = 0;
    int64_t acquire_failures = 0;

    Counters& operator+=(const Counters& o) {
      evictions += o.evictions;
      evicted_bytes += o.evicted_bytes;
      refetches += o.refetches;
      refetch_bytes += o.refetch_bytes;
      unpinned_reads += o.unpinned_reads;
      acquire_failures += o.acquire_failures;
      return *this;
    }
  };
  Counters counters() const;

 private:
  const int64_t budget_bytes_;
  mutable Mutex mu_;
  int64_t used_bytes_ CUMULON_GUARDED_BY(mu_) = 0;
  int64_t peak_bytes_ CUMULON_GUARDED_BY(mu_) = 0;
  Counters counters_ CUMULON_GUARDED_BY(mu_);
};

/// One MemoryBudget per cluster node, machine-indexed the same way
/// TileCacheGroup is (machine % nodes). The executor creates a group per
/// Run when ExecutorOptions::memory_budget_bytes is set; it lives on the
/// Run stack frame, so task closures may borrow node ledgers for the
/// duration of the plan.
class MemoryBudgetGroup {
 public:
  MemoryBudgetGroup(int num_nodes, int64_t budget_bytes_per_node);

  MemoryBudget* node(int machine) {
    return nodes_[static_cast<size_t>(machine) % nodes_.size()].get();
  }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int64_t budget_bytes_per_node() const { return budget_bytes_per_node_; }

  /// Sum of per-node spill counters right now.
  MemoryBudget::Counters TotalCounters() const;
  /// Highest per-node peak usage observed so far.
  int64_t MaxPeakBytes() const;

 private:
  const int64_t budget_bytes_per_node_;
  std::vector<std::unique_ptr<MemoryBudget>> nodes_;
};

}  // namespace cumulon

#endif  // CUMULON_EXEC_MEMORY_BUDGET_H_
