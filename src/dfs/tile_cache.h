#ifndef CUMULON_DFS_TILE_CACHE_H_
#define CUMULON_DFS_TILE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "matrix/tile.h"

namespace cumulon {

/// Aggregate counters of one cache (or a group of them). hit_bytes counts
/// serialized tile sizes (Tile::SizeBytes), the same unit the DFS accounts
/// in, so hit bytes are directly comparable to DfsStats reads.
/// resident_bytes counts the allocator's actual in-memory footprint
/// (Tile::MemoryBytes — cache-line aligned and padded), which is what the
/// capacity budget is spent against. rejections counts Puts that the
/// admission rule declined (see TileCache).
struct TileCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;
  int64_t invalidations = 0;
  int64_t rejections = 0;
  int64_t hit_bytes = 0;
  int64_t resident_bytes = 0;
  int64_t resident_tiles = 0;

  int64_t lookups() const { return hits + misses; }
  double hit_rate() const {
    const int64_t total = lookups();
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// A byte-budgeted LRU cache of immutable tiles, keyed by their DFS path.
/// One instance represents the page-cache / reader-buffer memory of a
/// single cluster node, so tasks placed on the same machine reuse input
/// tiles instead of re-fetching (and re-checksumming) them from the DFS.
/// Cached tiles are shared_ptrs to the same immutable payloads the DFS
/// holds — the cache adds bookkeeping, not copies.
///
/// Admission (TinyLFU's rule, Einziger et al., ACM TOS 2017). Every Get
/// counts one request for its key, hit or miss. A Put that fits in free
/// space is inserted. Otherwise the tile is admitted only if its key's
/// count is strictly greater than the count of every entry it would evict
/// from the LRU end; if not, it is dropped and counted in
/// TileCacheStats::rejections. So a scan larger than the cache passes
/// through without flushing a resident set that keeps being re-read, and a
/// tile nobody has requested yet (a fresh write) only fills free space.
///
/// Aging. Once every kAgingRequestsPerTile × (resident tiles) +
/// kAgingBaseRequests requests (16 × resident + 64), every count is halved
/// and zero counts are dropped, so the counts follow the current plan.
/// Halving can tie a resident key with one requested once less, so right
/// after a sweep an equally hot scan may swap part of the resident set.
///
/// Count-table bound. Every counted key has a count of at least 1, a
/// period adds at most one period's requests to the sum of counts, and a
/// sweep halves it. So the table never holds more than
/// CountTableBound(R) = 2 × (16 × R + 64) keys, where R is the most tiles
/// the cache has held at once — whatever the number of distinct keys ever
/// requested.
///
/// Any tile up to the whole capacity is cacheable. One mutex per node
/// guards the LRU, the byte accounting, the counts and the aging sweep:
/// admission compares against node-wide victims, which a partition of the
/// key space would not see.
///
/// Thread-safe.
class TileCache {
 public:
  static constexpr int64_t kAgingRequestsPerTile = 16;
  static constexpr int64_t kAgingBaseRequests = 64;

  /// Upper bound on CountedKeys() for a cache that has never held more
  /// than `max_resident_tiles` tiles at once.
  static constexpr int64_t CountTableBound(int64_t max_resident_tiles) {
    return 2 * (kAgingRequestsPerTile * max_resident_tiles +
                kAgingBaseRequests);
  }

  /// `capacity_bytes` <= 0 disables caching (every Get misses).
  explicit TileCache(int64_t capacity_bytes);

  /// Counts one request for `key`, then returns the cached tile (promoted
  /// to most-recently-used), or nullptr on a miss.
  std::shared_ptr<const Tile> Get(const std::string& key);

  /// Offers `tile` under `key`. Any cached copy of `key` is dropped first,
  /// whether or not the new tile is admitted (class comment). No-op for
  /// null tiles and tiles larger than the whole capacity.
  void Put(const std::string& key, std::shared_ptr<const Tile> tile);

  /// Drops `key` if present (tile overwritten or deleted in the DFS). Its
  /// request count stays: the key's next version is as popular.
  void Invalidate(const std::string& key);

  /// Drops every entry whose key starts with `prefix`; returns the count.
  int64_t InvalidatePrefix(const std::string& prefix);

  /// Drops every entry and every request count (the node's memory is gone).
  void Clear();

  TileCacheStats Stats() const;

  /// Keys in the request-count table (bounded by CountTableBound).
  int64_t CountedKeys() const;

  int64_t capacity_bytes() const { return capacity_bytes_; }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const Tile> tile;
    int64_t size_bytes = 0;    // serialized (DFS-comparable hit accounting)
    int64_t memory_bytes = 0;  // aligned in-memory footprint (budgeting)
  };

  void CountRequestLocked(const std::string& key) CUMULON_REQUIRES(mu_);
  int64_t CountLocked(const std::string& key) const CUMULON_REQUIRES(mu_);
  /// Evicts LRU entries until `incoming_bytes` fit, if every one of them
  /// has a lower count than `key`; otherwise evicts nothing and returns
  /// false.
  bool MakeRoomLocked(const std::string& key, int64_t incoming_bytes)
      CUMULON_REQUIRES(mu_);
  void EraseLocked(std::list<Entry>::iterator it) CUMULON_REQUIRES(mu_);

  const int64_t capacity_bytes_;
  mutable Mutex mu_{"TileCache::mu_"};
  std::list<Entry> lru_ CUMULON_GUARDED_BY(mu_);  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_
      CUMULON_GUARDED_BY(mu_);
  int64_t bytes_ CUMULON_GUARDED_BY(mu_) = 0;
  // Request counts of resident and non-resident keys alike.
  std::unordered_map<std::string, int64_t> counts_ CUMULON_GUARDED_BY(mu_);
  int64_t requests_since_aging_ CUMULON_GUARDED_BY(mu_) = 0;
  // Counters only; resident_* are derived from lru_ and bytes_.
  TileCacheStats stats_ CUMULON_GUARDED_BY(mu_);
};

/// Per-node caches of a whole cluster: node i of the DFS gets caches_[i].
/// Owned by the engines (real and sim) so cache capacity is derived from
/// the same MachineProfile the scheduler and memory-feasibility filter use.
class TileCacheGroup {
 public:
  TileCacheGroup(int num_nodes, int64_t bytes_per_node);

  /// Cache of `node`, or nullptr when the node index is out of range
  /// (e.g. reads attributed to the client, reader_node = -1).
  TileCache* node(int node);

  int num_nodes() const { return static_cast<int>(caches_.size()); }
  int64_t bytes_per_node() const { return bytes_per_node_; }

  /// Summed counters across all nodes.
  TileCacheStats TotalStats() const;

  /// Drops `key` from every node's cache (a Put made all copies stale).
  void InvalidateAll(const std::string& key);

  /// Drops every entry under `prefix` from every node's cache.
  int64_t InvalidatePrefixAll(const std::string& prefix);

  /// Drops everything cached on one node — the node's memory is gone (e.g.
  /// its transient machine was revoked). Returns the tile count dropped;
  /// no-op (0) for out-of-range nodes.
  int64_t ClearNode(int node);

  void Clear();

 private:
  int64_t bytes_per_node_;
  std::vector<std::unique_ptr<TileCache>> caches_;
};

/// Fraction of a slot's share of machine memory that its task may use. The
/// optimizer's memory-feasibility filter (SlotMemoryBytes) and the node
/// cache's budget (NodeTileCacheBudget) both split machine memory with it.
inline constexpr double kTaskMemoryFraction = 0.8;

/// Cache budget of one node: machine memory minus the slots' task working
/// sets, so the cache only gets memory no task is promised.
int64_t NodeTileCacheBudget(double machine_memory_bytes, int slots_per_machine);

}  // namespace cumulon

#endif  // CUMULON_DFS_TILE_CACHE_H_
