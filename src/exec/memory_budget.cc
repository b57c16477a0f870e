#include "exec/memory_budget.h"

#include <algorithm>

namespace cumulon {

bool MemoryBudget::TryAcquire(int64_t bytes) {
  if (bytes < 0) return false;
  MutexLock lock(&mu_);
  if (budget_bytes_ > 0 && used_bytes_ + bytes > budget_bytes_) {
    ++counters_.acquire_failures;
    return false;
  }
  used_bytes_ += bytes;
  peak_bytes_ = std::max(peak_bytes_, used_bytes_);
  return true;
}

void MemoryBudget::Release(int64_t bytes) {
  MutexLock lock(&mu_);
  used_bytes_ -= bytes;
  if (used_bytes_ < 0) used_bytes_ = 0;  // defensive; callers pair acquire
}

int64_t MemoryBudget::used_bytes() const {
  MutexLock lock(&mu_);
  return used_bytes_;
}

int64_t MemoryBudget::peak_bytes() const {
  MutexLock lock(&mu_);
  return peak_bytes_;
}

void MemoryBudget::NoteEviction(int64_t bytes) {
  MutexLock lock(&mu_);
  ++counters_.evictions;
  counters_.evicted_bytes += bytes;
}

void MemoryBudget::NoteRefetch(int64_t bytes) {
  MutexLock lock(&mu_);
  ++counters_.refetches;
  counters_.refetch_bytes += bytes;
}

void MemoryBudget::NoteUnpinnedRead(int64_t /*bytes*/) {
  MutexLock lock(&mu_);
  ++counters_.unpinned_reads;
}

MemoryBudget::Counters MemoryBudget::counters() const {
  MutexLock lock(&mu_);
  return counters_;
}

MemoryBudgetGroup::MemoryBudgetGroup(int num_nodes,
                                     int64_t budget_bytes_per_node)
    : budget_bytes_per_node_(budget_bytes_per_node) {
  nodes_.reserve(static_cast<size_t>(std::max(num_nodes, 1)));
  for (int i = 0; i < std::max(num_nodes, 1); ++i) {
    nodes_.push_back(std::make_unique<MemoryBudget>(budget_bytes_per_node));
  }
}

MemoryBudget::Counters MemoryBudgetGroup::TotalCounters() const {
  MemoryBudget::Counters total;
  for (const auto& node : nodes_) total += node->counters();
  return total;
}

int64_t MemoryBudgetGroup::MaxPeakBytes() const {
  int64_t peak = 0;
  for (const auto& node : nodes_) {
    peak = std::max(peak, node->peak_bytes());
  }
  return peak;
}

}  // namespace cumulon
