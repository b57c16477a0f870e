#ifndef CUMULON_DFS_DFS_TILE_STORE_H_
#define CUMULON_DFS_DFS_TILE_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "dfs/sim_dfs.h"
#include "dfs/tile_cache.h"
#include "matrix/tile_store.h"
#include "obs/metrics.h"

namespace cumulon {

/// TileStore backed by the simulated DFS. Tile payloads round-trip through
/// SimDfs so both the bytes-moved accounting and the actual data share one
/// code path. Path scheme: /matrix/<name>/t_<row>_<col>.
///
/// With `verify_checksums` the store records a Checksum64 (XXH64) of each
/// tile's payload at write time and re-verifies it on every read that
/// misses the node cache (HDFS's block checksumming), turning silent
/// corruption into a loud Internal error. A corrupted tile passes with
/// probability about 2^-64; Checksum64 states the exact guarantee.
///
/// With a TileCacheGroup attached (AttachCaches), Get consults the reading
/// node's local cache first: hits skip the DFS entirely — no bytes-moved
/// accounting, no checksum pass — which is where map-only matrix jobs that
/// read the same input tile from many splits get their IO back. Misses are
/// verified as usual and then offered to the reader's cache, whose
/// admission rule may decline them (TileCache); Put and DeleteMatrix
/// invalidate every node's cached copy before the DFS write so a cache can
/// never serve stale data. Each request (Get or GetAsync) makes exactly
/// one cache lookup, so the cache's counts and the store's cache.*
/// counters agree and a prefetched request is not counted twice.
class DfsTileStore : public TileStore {
 public:
  /// Does not take ownership of `dfs`, which must outlive this store.
  explicit DfsTileStore(SimDfs* dfs, bool verify_checksums = false)
      : dfs_(dfs), verify_checksums_(verify_checksums) {}

  /// Attaches the per-node caches (owned by the engine; must outlive this
  /// store). nullptr detaches.
  void AttachCaches(TileCacheGroup* caches) { caches_ = caches; }

  TileCacheGroup* caches() const { return caches_; }

  /// Publishes dfs.* and cache.* counters (docs/observability.md) to
  /// `metrics` on every Get/Put/Delete. Borrowed; nullptr detaches. The
  /// counter handles are cached here, so the per-operation cost is a few
  /// relaxed atomic adds.
  void AttachMetrics(MetricsRegistry* metrics);

  /// Turns on the asynchronous prefetch path: GetAsync fetches on a
  /// bounded background pool instead of the calling thread, and concurrent
  /// requests for one (tile, node) coalesce onto a single DFS read whose
  /// result lands in the reader's tile cache. Without this call, GetAsync
  /// degrades to a synchronous Get wrapped in a ready future. Futures
  /// issued through the async API must not outlive the store.
  void EnablePrefetch(int num_threads = 4);

  bool prefetch_enabled() const { return prefetch_pool_ != nullptr; }

  Status Put(const std::string& matrix, TileId id,
             std::shared_ptr<const Tile> tile, int writer_node) override;
  Result<std::shared_ptr<const Tile>> Get(const std::string& matrix,
                                          TileId id, int reader_node) override;
  TileFuture GetAsync(const std::string& matrix, TileId id,
                      int reader_node) override;
  Status DeleteMatrix(const std::string& matrix) override;
  std::vector<int> PreferredNodes(const std::string& matrix,
                                  TileId id) override;
  Status PutMeta(const std::string& matrix, TileId id, int64_t bytes,
                 int writer_node) override;

  static std::string TilePath(const std::string& matrix, TileId id);

  SimDfs* dfs() const { return dfs_; }

 private:
  /// Cached counter handles of the attached registry; all null when
  /// metrics are detached.
  struct StoreCounters {
    Counter* read_ops = nullptr;
    Counter* read_bytes = nullptr;
    Counter* write_ops = nullptr;
    Counter* write_bytes = nullptr;
    Counter* delete_ops = nullptr;
    Counter* cache_hits = nullptr;
    Counter* cache_misses = nullptr;
    Counter* cache_hit_bytes = nullptr;
    Counter* prefetch_issued = nullptr;
    Counter* prefetch_hits = nullptr;
    Counter* prefetch_coalesced = nullptr;
    Counter* prefetch_stall_ns = nullptr;
    Histogram* prefetch_stall_seconds = nullptr;
  };

  /// Reading node's cached copy of `path`, or null. Each tile request
  /// makes exactly one such lookup: it counts the request in the node
  /// cache's admission counts and bumps cache.hits or cache.misses.
  std::shared_ptr<const Tile> CacheLookup(const std::string& path,
                                          int reader_node);

  /// The miss path behind CacheLookup: reads `path` from the DFS, verifies
  /// its checksum, and offers the tile to the reader's cache. Makes no
  /// cache lookup of its own.
  Result<std::shared_ptr<const Tile>> ReadThrough(const std::string& matrix,
                                                  TileId id,
                                                  const std::string& path,
                                                  int reader_node);

  /// Returns the (possibly coalesced) in-flight fetch state for
  /// (matrix tile, reader node), submitting a pool worker for new fetches.
  /// The caller's future is one more waiter on a coalesced state, and the
  /// first waiter on a new one.
  std::shared_ptr<TileFetchState> StartFetch(const std::string& matrix,
                                             TileId id, int reader_node);

  SimDfs* dfs_;
  bool verify_checksums_;
  TileCacheGroup* caches_ = nullptr;
  StoreCounters counters_;
  Mutex checksum_mu_{"DfsTileStore::checksum_mu_"};
  std::map<std::string, uint64_t> checksums_ CUMULON_GUARDED_BY(checksum_mu_);

  // Prefetch state. prefetch_mu_ serializes the in-flight map AND the
  // abandon-or-fetch decision of pool workers: a fetch may only resolve as
  // Cancelled after it has been unpublished from in_flight_, so a request
  // can never coalesce onto (and then spuriously fail with) a fetch that is
  // about to cancel. The pool is declared last so its destructor joins the
  // workers before the in-flight map (and the rest of the store) goes away.
  Mutex prefetch_mu_{"DfsTileStore::prefetch_mu_"};
  std::map<std::pair<std::string, int>, std::shared_ptr<TileFetchState>>
      in_flight_ CUMULON_GUARDED_BY(prefetch_mu_);
  Stopwatch prefetch_clock_;       // span timestamps, restarted at enable
  double prefetch_trace_base_ = 0; // tracer offset at enable time
  std::unique_ptr<ThreadPool> prefetch_pool_;
};

}  // namespace cumulon

#endif  // CUMULON_DFS_DFS_TILE_STORE_H_
