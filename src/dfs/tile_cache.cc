#include "dfs/tile_cache.h"

#include <algorithm>
#include <iterator>

namespace cumulon {

TileCache::TileCache(int64_t capacity_bytes)
    : capacity_bytes_(std::max<int64_t>(capacity_bytes, 0)) {}

void TileCache::CountRequestLocked(const std::string& key) {
  ++counts_[key];
  const int64_t period =
      kAgingRequestsPerTile * static_cast<int64_t>(lru_.size()) +
      kAgingBaseRequests;
  if (++requests_since_aging_ < period) return;
  requests_since_aging_ = 0;
  for (auto it = counts_.begin(); it != counts_.end();) {
    it->second /= 2;
    it = it->second == 0 ? counts_.erase(it) : std::next(it);
  }
}

int64_t TileCache::CountLocked(const std::string& key) const {
  auto it = counts_.find(key);
  return it == counts_.end() ? 0 : it->second;
}

std::shared_ptr<const Tile> TileCache::Get(const std::string& key) {
  MutexLock lock(&mu_);
  CountRequestLocked(key);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  // Promote to most-recently-used.
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  stats_.hit_bytes += it->second->size_bytes;
  return it->second->tile;
}

bool TileCache::MakeRoomLocked(const std::string& key,
                               int64_t incoming_bytes) {
  // Walk the would-be victims from the LRU end before evicting any: the
  // incoming tile either beats all of them or displaces none.
  const int64_t candidate = CountLocked(key);
  int64_t freed = 0;
  size_t victims = 0;
  for (auto it = lru_.rbegin();
       it != lru_.rend() && bytes_ - freed + incoming_bytes > capacity_bytes_;
       ++it) {
    if (CountLocked(it->key) >= candidate) return false;
    freed += it->memory_bytes;
    ++victims;
  }
  for (; victims > 0; --victims) {
    EraseLocked(std::prev(lru_.end()));
    ++stats_.evictions;
  }
  return true;
}

void TileCache::EraseLocked(std::list<Entry>::iterator it) {
  bytes_ -= it->memory_bytes;
  index_.erase(it->key);
  lru_.erase(it);
}

void TileCache::Put(const std::string& key, std::shared_ptr<const Tile> tile) {
  if (tile == nullptr) return;
  // Budget against what the entry actually pins in memory — the aligned,
  // padded allocation — not its smaller serialized form.
  const int64_t memory_bytes = tile->MemoryBytes();
  const int64_t size_bytes = tile->SizeBytes();
  if (memory_bytes > capacity_bytes_) return;
  MutexLock lock(&mu_);
  auto it = index_.find(key);
  if (it != index_.end()) EraseLocked(it->second);
  if (!MakeRoomLocked(key, memory_bytes)) {
    ++stats_.rejections;
    return;
  }
  lru_.push_front(Entry{key, std::move(tile), size_bytes, memory_bytes});
  index_[key] = lru_.begin();
  bytes_ += memory_bytes;
  ++stats_.insertions;
}

void TileCache::Invalidate(const std::string& key) {
  MutexLock lock(&mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return;
  EraseLocked(it->second);
  ++stats_.invalidations;
}

int64_t TileCache::InvalidatePrefix(const std::string& prefix) {
  MutexLock lock(&mu_);
  int64_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key.compare(0, prefix.size(), prefix) == 0) {
      EraseLocked(it++);
      ++stats_.invalidations;
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

void TileCache::Clear() {
  MutexLock lock(&mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
  counts_.clear();
  requests_since_aging_ = 0;
}

TileCacheStats TileCache::Stats() const {
  MutexLock lock(&mu_);
  TileCacheStats stats = stats_;
  stats.resident_bytes = bytes_;
  stats.resident_tiles = static_cast<int64_t>(lru_.size());
  return stats;
}

int64_t TileCache::CountedKeys() const {
  MutexLock lock(&mu_);
  return static_cast<int64_t>(counts_.size());
}

TileCacheGroup::TileCacheGroup(int num_nodes, int64_t bytes_per_node)
    : bytes_per_node_(std::max<int64_t>(bytes_per_node, 0)) {
  num_nodes = std::max(num_nodes, 0);
  caches_.reserve(num_nodes);
  for (int n = 0; n < num_nodes; ++n) {
    caches_.push_back(std::make_unique<TileCache>(bytes_per_node_));
  }
}

TileCache* TileCacheGroup::node(int node) {
  if (node < 0 || node >= static_cast<int>(caches_.size())) return nullptr;
  return caches_[node].get();
}

TileCacheStats TileCacheGroup::TotalStats() const {
  TileCacheStats total;
  for (const auto& cache : caches_) {
    const TileCacheStats s = cache->Stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.insertions += s.insertions;
    total.evictions += s.evictions;
    total.invalidations += s.invalidations;
    total.rejections += s.rejections;
    total.hit_bytes += s.hit_bytes;
    total.resident_bytes += s.resident_bytes;
    total.resident_tiles += s.resident_tiles;
  }
  return total;
}

void TileCacheGroup::InvalidateAll(const std::string& key) {
  for (auto& cache : caches_) cache->Invalidate(key);
}

int64_t TileCacheGroup::InvalidatePrefixAll(const std::string& prefix) {
  int64_t dropped = 0;
  for (auto& cache : caches_) dropped += cache->InvalidatePrefix(prefix);
  return dropped;
}

int64_t TileCacheGroup::ClearNode(int node) {
  if (node < 0 || node >= num_nodes()) return 0;
  TileCache* cache = caches_[node].get();
  const int64_t dropped = cache->Stats().resident_tiles;
  cache->Clear();
  return dropped;
}

void TileCacheGroup::Clear() {
  for (auto& cache : caches_) cache->Clear();
}

int64_t NodeTileCacheBudget(double machine_memory_bytes,
                            int slots_per_machine) {
  slots_per_machine = std::max(slots_per_machine, 1);
  const double slot_share = machine_memory_bytes / slots_per_machine;
  const double working_sets =
      slots_per_machine * slot_share * kTaskMemoryFraction;
  const double budget = machine_memory_bytes - working_sets;
  return budget <= 0.0 ? 0 : static_cast<int64_t>(budget);
}

}  // namespace cumulon
