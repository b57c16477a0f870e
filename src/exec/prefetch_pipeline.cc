#include "exec/prefetch_pipeline.h"

#include <algorithm>
#include <utility>

#include "common/aligned_buffer.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/task_io_stats.h"
#include "exec/memory_budget.h"
#include "obs/trace.h"

namespace cumulon {

namespace {

/// Budget weight of a hinted tile: the aligned footprint its deserialized
/// payload will occupy (serialized size = 16-byte header + payload).
int64_t HintFootprintBytes(int64_t serialized_bytes) {
  return AlignedFootprintBytes(std::max<int64_t>(serialized_bytes - 16, 0));
}

}  // namespace

TaskTileReader::ScratchReservation&
TaskTileReader::ScratchReservation::operator=(
    ScratchReservation&& other) noexcept {
  if (this != &other) {
    if (ledger_ != nullptr && bytes_ > 0) ledger_->Release(bytes_);
    ledger_ = std::exchange(other.ledger_, nullptr);
    bytes_ = std::exchange(other.bytes_, 0);
  }
  return *this;
}

TaskTileReader::ScratchReservation::~ScratchReservation() {
  if (ledger_ != nullptr && bytes_ > 0) ledger_->Release(bytes_);
}

TaskTileReader::TaskTileReader(TileStore* store, int machine,
                               int64_t budget_bytes, MemoryBudget* ledger,
                               int64_t pin_budget_bytes)
    : store_(store),
      machine_(machine),
      budget_bytes_(budget_bytes),
      ledger_(ledger),
      pin_budget_bytes_(pin_budget_bytes) {}

TaskTileReader::~TaskTileReader() {
  for (auto& [key, flight] : in_flight_) {
    flight.future.Cancel();
    if (ledger_ != nullptr) ledger_->Release(flight.bytes);
  }
  if (ledger_ != nullptr) {
    for (const MemoEntry& entry : lru_) ledger_->Release(entry.bytes);
  }
}

std::string TaskTileReader::Key(const std::string& matrix, TileId id) {
  return StrCat(matrix, "/", id.row, "_", id.col);
}

void TaskTileReader::Hint(const std::string& matrix, TileId id,
                          int64_t bytes) {
  if (budget_bytes_ <= 0) return;
  pending_.push_back(
      PendingHint{Key(matrix, id), matrix, id, HintFootprintBytes(bytes)});
  Pump();
}

void TaskTileReader::Pump() {
  while (!pending_.empty()) {
    PendingHint& next = pending_.front();
    if (memo_.count(next.key) != 0 || in_flight_.count(next.key) != 0) {
      pending_.pop_front();  // already fetched or fetching
      continue;
    }
    // The budget caps the window, but a single oversized tile must still
    // go out or the pipeline would deadlock on it.
    if (!in_flight_.empty() &&
        in_flight_bytes_ + next.bytes > budget_bytes_) {
      return;
    }
    if (ledger_ != nullptr) {
      // Under a memory budget the in-flight window also counts against
      // this task's pinned-panel cap; an unissuable hint is not a
      // deadlock — Read falls back to a synchronous, unpinned fetch.
      if (in_flight_bytes_ + pinned_bytes_ + next.bytes >
          pin_budget_bytes_) {
        return;
      }
      while (!ledger_->TryAcquire(next.bytes)) {
        if (lru_.empty()) return;  // nothing left to spill; stay pending
        EvictLru();
      }
    }
    InFlight flight;
    flight.bytes = next.bytes;
    const std::string key = next.key;
    const std::string matrix = next.matrix;
    const TileId id = next.id;
    pending_.pop_front();
    // GetAsync may itself consume a synchronous store (ready future); the
    // bookkeeping is identical either way. A future that comes back
    // resolved was read on this thread, so the call's time is a blocking
    // read like Read's own synchronous fallback.
    Stopwatch issued;
    flight.future = store_->GetAsync(matrix, id, machine_);
    if (flight.future.ready()) {
      TaskIoStats* io = TaskIoStats::Current();
      io->sync_read_seconds += issued.ElapsedSeconds();
      ++io->sync_reads;
    }
    in_flight_bytes_ += flight.bytes;
    in_flight_.emplace(key, std::move(flight));
  }
}

Result<std::shared_ptr<const Tile>> TaskTileReader::Read(
    const std::string& matrix, TileId id) {
  return ReadInternal(matrix, id, /*pin=*/false);
}

Result<std::shared_ptr<const Tile>> TaskTileReader::ReadMemoized(
    const std::string& matrix, TileId id) {
  return ReadInternal(matrix, id, /*pin=*/true);
}

Result<std::shared_ptr<const Tile>> TaskTileReader::ReadInternal(
    const std::string& matrix, TileId id, bool pin) {
  const std::string key = Key(matrix, id);
  if (auto memo_it = memo_.find(key); memo_it != memo_.end()) {
    // Touch: move to the front of the pinned LRU.
    lru_.splice(lru_.begin(), lru_, memo_it->second);
    return memo_it->second->tile;
  }
  Pump();
  auto it = in_flight_.find(key);
  if (it != in_flight_.end()) {
    TileFuture future = std::move(it->second.future);
    const int64_t flight_bytes = it->second.bytes;
    in_flight_bytes_ -= flight_bytes;
    in_flight_.erase(it);
    // Top the window back up before (possibly) blocking on this tile, so
    // later reads keep downloading while this one waits.
    Pump();
    auto result = future.Await();
    if (ledger_ != nullptr) {
      // The hint-estimate charge is returned; a pinned tile re-acquires
      // its exact resident footprint below, an unpinned one is covered by
      // the task's scratch reservation while the caller consumes it.
      ledger_->Release(flight_bytes);
    }
    if (result.ok()) {
      const int64_t bytes = result.value()->MemoryBytes();
      NoteRefetchIfSpilled(key, bytes);
      if (pin) {
        TryPin(key, result.value());
      } else if (ledger_ != nullptr) {
        ledger_->NoteUnpinnedRead(bytes);
      }
    }
    return result;
  }
  // Never hinted (or hint still pending past the budget): fetch on the
  // task thread. Drop a stale pending hint for the same tile so the
  // window does not waste budget re-fetching it later.
  for (auto pending_it = pending_.begin(); pending_it != pending_.end();
       ++pending_it) {
    if (pending_it->key == key) {
      pending_.erase(pending_it);
      break;
    }
  }
  Stopwatch blocked;
  auto result = store_->Get(matrix, id, machine_);
  TaskIoStats* io = TaskIoStats::Current();
  io->sync_read_seconds += blocked.ElapsedSeconds();
  ++io->sync_reads;
  if (result.ok()) {
    const int64_t bytes = result.value()->MemoryBytes();
    NoteRefetchIfSpilled(key, bytes);
    if (pin) {
      TryPin(key, result.value());
    } else if (ledger_ != nullptr) {
      ledger_->NoteUnpinnedRead(bytes);
    }
  }
  return result;
}

bool TaskTileReader::TryPin(const std::string& key,
                            std::shared_ptr<const Tile> tile) {
  const int64_t bytes = tile->MemoryBytes();
  if (ledger_ != nullptr) {
    while (pinned_bytes_ + in_flight_bytes_ + bytes > pin_budget_bytes_ &&
           !lru_.empty()) {
      EvictLru();
    }
    if (pinned_bytes_ + in_flight_bytes_ + bytes > pin_budget_bytes_) {
      ledger_->NoteUnpinnedRead(bytes);
      return false;
    }
    while (!ledger_->TryAcquire(bytes)) {
      if (lru_.empty()) {
        ledger_->NoteUnpinnedRead(bytes);
        return false;
      }
      EvictLru();
    }
  }
  pinned_bytes_ += bytes;
  lru_.push_front(MemoEntry{key, std::move(tile), bytes});
  memo_[key] = lru_.begin();
  return true;
}

void TaskTileReader::EvictLru() {
  MemoEntry& victim = lru_.back();
  pinned_bytes_ -= victim.bytes;
  if (ledger_ != nullptr) {
    ledger_->Release(victim.bytes);
    ledger_->NoteEviction(victim.bytes);
  }
  spilled_.insert(victim.key);
  if (Tracer* tracer = GlobalTracer()) {
    TraceSpan span;
    span.name = StrCat("spill ", victim.key);
    span.category = "spill";
    span.parent_id = -1;  // instant marker, not nested under a job span
    span.machine = machine_;
    span.start_seconds =
        tracer->time_offset() + task_clock_.ElapsedSeconds();
    span.duration_seconds = 0.0;
    span.args = {{"bytes", static_cast<double>(victim.bytes)}};
    tracer->AddSpan(std::move(span));
  }
  memo_.erase(victim.key);
  lru_.pop_back();
}

void TaskTileReader::NoteRefetchIfSpilled(const std::string& key,
                                          int64_t bytes) {
  if (ledger_ == nullptr) return;
  if (spilled_.erase(key) > 0) ledger_->NoteRefetch(bytes);
}

TaskTileReader::ScratchReservation TaskTileReader::PinScratch(
    int64_t bytes) {
  if (ledger_ == nullptr || bytes <= 0) return ScratchReservation();
  while (!ledger_->TryAcquire(bytes)) {
    if (lru_.empty()) return ScratchReservation();
    EvictLru();
  }
  return ScratchReservation(ledger_, bytes);
}

}  // namespace cumulon
