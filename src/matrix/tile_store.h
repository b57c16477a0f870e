#ifndef CUMULON_MATRIX_TILE_STORE_H_
#define CUMULON_MATRIX_TILE_STORE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "matrix/layout.h"
#include "matrix/tile.h"

namespace cumulon {

/// Shared state of one asynchronous tile fetch. A store creates one state
/// per in-flight fetch, hands out TileFutures over it (several callers may
/// coalesce onto one state), and calls Resolve exactly once when the fetch
/// completes. Thread-safe.
class TileFetchState {
 public:
  using FetchResult = Result<std::shared_ptr<const Tile>>;

  /// Publishes the fetch outcome and wakes every Await. Call once.
  void Resolve(FetchResult result);

  bool resolved() const;

  /// True when every future issued over this state cancelled before
  /// resolution — the fetch worker may skip the actual read.
  bool abandoned() const;

  /// Blocks until Resolve, charging the wait to the calling thread's
  /// TaskIoStats and to `stall_callback` (if set).
  FetchResult Await();

  /// One more future now shares this state (coalesced request).
  void AddWaiter() { waiters_.fetch_add(1, std::memory_order_relaxed); }

  /// A future declared it will never Await.
  void Cancel() { cancels_.fetch_add(1, std::memory_order_relaxed); }

  /// Invoked from Await with the measured blocked seconds (may be called
  /// concurrently from several waiters). Set before sharing the state;
  /// stores use it to export stall metrics without this header depending
  /// on the metrics library.
  std::function<void(double seconds)> stall_callback;

 private:
  mutable Mutex mu_{"TileFetchState::mu_"};
  CondVar cv_;
  bool resolved_ CUMULON_GUARDED_BY(mu_) = false;
  std::optional<FetchResult> result_ CUMULON_GUARDED_BY(mu_);
  std::atomic<int> waiters_{1};
  std::atomic<int> cancels_{0};
};

/// Handle to an asynchronous tile fetch. Cheap to copy (shared state);
/// default-constructed futures are invalid. Await may be called by any
/// number of holders; Cancel only withdraws this holder's interest — the
/// fetch is skipped only when every holder cancels before it starts.
class TileFuture {
 public:
  TileFuture() = default;

  /// An already-resolved future (the synchronous fallback path).
  static TileFuture Ready(TileFetchState::FetchResult result);

  /// Wraps a store-managed fetch state. Does not AddWaiter — the store
  /// accounts for the first waiter at state creation and calls AddWaiter
  /// itself when coalescing.
  static TileFuture FromState(std::shared_ptr<TileFetchState> state);

  bool valid() const { return state_ != nullptr; }
  bool ready() const { return state_ != nullptr && state_->resolved(); }

  /// Blocks until the fetch resolves and returns its result.
  TileFetchState::FetchResult Await();

  /// Declares this future will never be awaited (pipeline teardown).
  void Cancel();

 private:
  std::shared_ptr<TileFetchState> state_;
};

/// Storage abstraction the execution engine reads/writes tiles through.
/// Production deployments back this with the (simulated) DFS
/// (dfs::DfsTileStore); tests may use the in-memory implementation below.
///
/// Implementations must be thread-safe: tasks on the real engine call
/// Get/Put concurrently.
class TileStore {
 public:
  virtual ~TileStore() = default;

  /// Stores tile `id` of matrix `matrix`. Overwrites any existing tile.
  /// `writer_node` identifies which cluster node produced the tile (used by
  /// DFS-backed stores for replica placement / locality accounting);
  /// -1 means "client" / unknown.
  virtual Status Put(const std::string& matrix, TileId id,
                     std::shared_ptr<const Tile> tile, int writer_node) = 0;

  /// Fetches tile `id` of matrix `matrix`. `reader_node` is the node doing
  /// the read, for locality accounting.
  virtual Result<std::shared_ptr<const Tile>> Get(const std::string& matrix,
                                                  TileId id,
                                                  int reader_node) = 0;

  /// Asynchronous Get: returns a future that resolves to the tile. The
  /// default implementation fetches synchronously and returns a ready
  /// future, so callers can be written against the async API regardless of
  /// the backing store; DfsTileStore overrides this with a real prefetch
  /// pool (concurrent requests for one tile coalesce onto one fetch).
  virtual TileFuture GetAsync(const std::string& matrix, TileId id,
                              int reader_node) {
    return TileFuture::Ready(Get(matrix, id, reader_node));
  }

  /// Drops all tiles of `matrix` (used to free intermediates).
  virtual Status DeleteMatrix(const std::string& matrix) = 0;

  /// Cluster nodes that host a replica of the tile, for locality-aware task
  /// placement. Default: no preference (non-DFS stores).
  virtual std::vector<int> PreferredNodes(const std::string& matrix,
                                          TileId id) {
    (void)matrix;
    (void)id;
    return {};
  }

  /// Records that tile `id` of `matrix` exists with the given serialized
  /// size, without providing data. Simulation-mode runs use this so
  /// downstream jobs still see correct placement/locality. Default: no-op.
  virtual Status PutMeta(const std::string& matrix, TileId id, int64_t bytes,
                         int writer_node) {
    (void)matrix;
    (void)id;
    (void)bytes;
    (void)writer_node;
    return Status::OK();
  }
};

/// Simple thread-safe map-backed store with no locality modeling.
class InMemoryTileStore : public TileStore {
 public:
  Status Put(const std::string& matrix, TileId id,
             std::shared_ptr<const Tile> tile, int writer_node) override;
  Result<std::shared_ptr<const Tile>> Get(const std::string& matrix,
                                          TileId id, int reader_node) override;
  Status DeleteMatrix(const std::string& matrix) override;

  /// Number of tiles currently stored (across all matrices).
  int64_t NumTiles() const;

 private:
  mutable Mutex mu_{"InMemoryTileStore::mu_"};
  std::map<std::pair<std::string, TileId>, std::shared_ptr<const Tile>> tiles_
      CUMULON_GUARDED_BY(mu_);
};

}  // namespace cumulon

#endif  // CUMULON_MATRIX_TILE_STORE_H_
