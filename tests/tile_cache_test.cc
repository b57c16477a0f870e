#include "dfs/tile_cache.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/real_engine.h"
#include "common/rng.h"
#include "common/strings.h"
#include "dfs/dfs_tile_store.h"
#include "dfs/sim_dfs.h"
#include "exec/executor.h"
#include "exec/physical_plan.h"
#include "matrix/tiled_matrix.h"
#include "obs/metrics.h"

namespace cumulon {
namespace {

std::shared_ptr<const Tile> MakeTile(int64_t rows, int64_t cols,
                                     double value) {
  auto tile = std::make_shared<Tile>(rows, cols);
  FillTile(tile.get(), value);
  return tile;
}

// 4x4 doubles + header = 144 serialized bytes; the unit of all capacity
// math below. The in-memory footprint is smaller here (128 bytes: the
// 16-byte header is not materialized and the payload rounds up to whole
// cache lines), and that is what resident_bytes and eviction budget on.
const int64_t kTileBytes = MakeTile(4, 4, 0.0)->SizeBytes();
const int64_t kTileMemoryBytes = MakeTile(4, 4, 0.0)->MemoryBytes();

TEST(TileCacheTest, MissThenHit) {
  TileCache cache(10 * kTileBytes);
  EXPECT_EQ(cache.Get("a"), nullptr);
  cache.Put("a", MakeTile(4, 4, 1.0));
  auto hit = cache.Get("a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->At(0, 0), 1.0);
  const TileCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.resident_tiles, 1);
  EXPECT_EQ(stats.resident_bytes, kTileMemoryBytes);
  EXPECT_EQ(stats.hit_bytes, kTileBytes);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(TileCacheTest, EvictsLeastRecentlyUsedFirst) {
  // Room for exactly two tiles.
  TileCache cache(2 * kTileBytes);
  cache.Put("a", MakeTile(4, 4, 1.0));
  cache.Put("b", MakeTile(4, 4, 2.0));
  // One request makes "c" hotter than the never-requested residents.
  EXPECT_EQ(cache.Get("c"), nullptr);
  cache.Put("c", MakeTile(4, 4, 3.0));  // evicts "a", the LRU entry
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  EXPECT_EQ(cache.Stats().evictions, 1);
  EXPECT_EQ(cache.Stats().resident_tiles, 2);
}

TEST(TileCacheTest, GetPromotesEntryToMostRecentlyUsed) {
  TileCache cache(2 * kTileBytes);
  cache.Put("a", MakeTile(4, 4, 1.0));
  cache.Put("b", MakeTile(4, 4, 2.0));
  ASSERT_NE(cache.Get("a"), nullptr);  // "b" is now the LRU entry
  EXPECT_EQ(cache.Get("c"), nullptr);  // "c" outranks never-requested "b"
  cache.Put("c", MakeTile(4, 4, 3.0));
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
}

TEST(TileCacheTest, OversizedTileIsNotCached) {
  TileCache cache(kTileBytes);
  cache.Put("big", MakeTile(64, 64, 1.0));
  EXPECT_EQ(cache.Get("big"), nullptr);
  EXPECT_EQ(cache.Stats().resident_tiles, 0);
  EXPECT_EQ(cache.Stats().insertions, 0);
}

// Reads through the cache the way DfsTileStore does: a miss is followed
// by a Put of the fetched tile. Returns whether the request hit.
bool ReadThrough(TileCache* cache, const std::string& key) {
  if (cache->Get(key) != nullptr) return true;
  cache->Put(key, MakeTile(4, 4, 0.0));
  return false;
}

TEST(TileCacheTest, CyclicScanKeepsAResidentSetAcrossCycles) {
  // A cyclic scan over twice the capacity, the way an iterative program
  // re-reads an input larger than the node cache. LRU admits every miss
  // and evicts each tile just before its next use, so it hits nothing
  // after the first cycle. Here every key is requested equally often, so
  // the residents win every tie, keep their place and are hit on every
  // cycle. An aging sweep that lands mid-cycle can halve counts c and
  // c - 1 to the same value; the scanned keys then win the next tie and
  // swap part of the resident set, which costs hits in about one cycle
  // per sweep. Capacity 8 puts every sweep on a cycle boundary
  // (16 x 8 + 64 = 12 cycles of 16); 5 and 12 do not.
  for (const int capacity : {5, 8, 12}) {
    SCOPED_TRACE(StrCat("capacity ", capacity));
    TileCache cache(capacity * kTileMemoryBytes);
    constexpr int kCycles = 60;
    int64_t hits_after_first = 0;
    int full_cycles = 0;
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      int hits = 0;
      for (int k = 0; k < 2 * capacity; ++k) {
        hits += ReadThrough(&cache, StrCat("k", k)) ? 1 : 0;
      }
      EXPECT_EQ(cache.Stats().resident_tiles, capacity);
      if (cycle == 0) {
        EXPECT_EQ(hits, 0);
        continue;
      }
      hits_after_first += hits;
      full_cycles += hits == capacity ? 1 : 0;
      if (capacity == 8) {
        EXPECT_EQ(hits, capacity) << "cycle " << cycle;
      }
    }
    // LRU would score 0 on both.
    EXPECT_GE(hits_after_first, 0.9 * (kCycles - 1) * capacity);
    EXPECT_GE(full_cycles, 0.9 * (kCycles - 1));
  }
}

TEST(TileCacheTest, HotterKeyDisplacesColderResidentButATieDoesNot) {
  TileCache cache(2 * kTileMemoryBytes);
  ReadThrough(&cache, "a");  // free space: admitted with one request each
  ReadThrough(&cache, "b");
  ASSERT_EQ(cache.Stats().resident_tiles, 2);

  EXPECT_FALSE(ReadThrough(&cache, "c"));  // 1 request vs LRU "a"'s 1
  TileCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.rejections, 1);
  EXPECT_EQ(stats.evictions, 0);

  EXPECT_FALSE(ReadThrough(&cache, "c"));  // 2 requests beat "a"'s 1
  stats = cache.Stats();
  EXPECT_EQ(stats.rejections, 1);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.insertions, 3);
  EXPECT_TRUE(ReadThrough(&cache, "b"));
  EXPECT_TRUE(ReadThrough(&cache, "c"));
}

TEST(TileCacheTest, LargeTileMustBeatEveryVictimItWouldEvict) {
  // Four small tiles fill the cache; the large one needs two of them.
  const auto large = MakeTile(4, 8, 7.0);
  ASSERT_EQ(large->MemoryBytes(), 2 * kTileMemoryBytes);
  TileCache cache(4 * kTileMemoryBytes);
  // Counts before residency, so the LRU order stays a, b, c, d (a oldest):
  // the tail "a" is cold, the next victim "b" is hot.
  cache.Get("a");
  for (int i = 0; i < 3; ++i) cache.Get("b");
  for (const char* key : {"a", "b", "c", "d"}) {
    cache.Put(key, MakeTile(4, 4, 1.0));
  }
  for (int i = 0; i < 2; ++i) cache.Get("L");  // beats "a" (1), not "b" (3)
  cache.Put("L", large);
  TileCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.rejections, 1);
  EXPECT_EQ(stats.evictions, 0) << "a rejected tile must evict nothing";
  EXPECT_EQ(stats.resident_tiles, 4);

  for (int i = 0; i < 2; ++i) cache.Get("L");  // 4 requests beat both
  cache.Put("L", large);
  stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 2);
  EXPECT_EQ(stats.resident_tiles, 3);
  EXPECT_EQ(stats.resident_bytes, 4 * kTileMemoryBytes);
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("b"), nullptr);
  auto got = cache.Get("L");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->At(0, 0), 7.0);
}

TEST(TileCacheTest, AgingAdmitsANewWorkingSetWithinTwoPeriods) {
  // Requests move from one working set to another of the same size. The
  // old keys' counts stop growing and each sweep halves them; the new
  // keys count up until they beat the LRU tail. With 4 resident tiles the
  // aging period is 16 x 4 + 64 = 128 requests, and the new set is fully
  // resident within two periods wherever in a period the switch lands.
  constexpr int kCapacity = 4;
  constexpr int64_t kPeriod = TileCache::kAgingRequestsPerTile * kCapacity +
                              TileCache::kAgingBaseRequests;
  for (int warmup = 1000; warmup < 1000 + kPeriod; warmup += 9) {
    SCOPED_TRACE(StrCat("warm-up requests ", warmup));
    TileCache cache(kCapacity * kTileMemoryBytes);
    for (int r = 0; r < warmup; ++r) {
      ReadThrough(&cache, StrCat("old", r % kCapacity));
    }
    // Requests made before a whole pass over the new set hits.
    int64_t requests = 0;
    auto pass_hits_all = [&] {
      bool all = true;
      for (int k = 0; k < kCapacity; ++k) {
        all = ReadThrough(&cache, StrCat("new", k)) && all;
      }
      return all;
    };
    while (!pass_hits_all() && requests < 10 * kPeriod) {
      requests += kCapacity;
    }
    EXPECT_LE(requests, 2 * kPeriod);
  }
}

TEST(TileCacheTest, CountTableStaysBoundedUnderManyDistinctKeys) {
  // A long-lived daemon reads an unbounded stream of distinct tiles. Half
  // the requests go to a small hot set so that some counts survive
  // sweeps; the table must never outgrow the class comment's bound.
  constexpr int kCapacity = 8;
  TileCache cache(kCapacity * kTileMemoryBytes);
  const int64_t bound = TileCache::CountTableBound(kCapacity);
  int64_t largest = 0;
  for (int i = 0; i < 100000; ++i) {
    ReadThrough(&cache, StrCat("cold", i));
    ReadThrough(&cache, StrCat("hot", i % 4));
    largest = std::max(largest, cache.CountedKeys());
    ASSERT_LE(cache.CountedKeys(), bound) << "after " << i << " cold keys";
  }
  EXPECT_GT(largest, bound / 8) << "bound check is vacuous";
  EXPECT_LE(cache.Stats().resident_tiles, kCapacity);
}

TEST(TileCacheTest, TileUpToTheWholeBudgetIsCacheable) {
  // One LRU per node: no shard caps the tile size below the node budget.
  // A 4 MiB tile fits a 16 MiB cache, and a tile of exactly the budget
  // fits a cache of that size.
  const auto four_mib = MakeTile(512, 1024, 2.0);
  TileCache node(16 << 20);
  node.Put("t", four_mib);
  EXPECT_NE(node.Get("t"), nullptr);

  TileCache exact(four_mib->MemoryBytes());
  exact.Put("t", four_mib);
  EXPECT_NE(exact.Get("t"), nullptr);
  EXPECT_EQ(exact.Stats().resident_bytes, exact.capacity_bytes());
}

TEST(TileCacheTest, RejectedPutOfACachedKeyLeavesNoStaleCopy) {
  TileCache cache(2 * kTileMemoryBytes);
  cache.Put("a", MakeTile(4, 4, 1.0));
  cache.Put("b", MakeTile(4, 4, 2.0));
  for (int i = 0; i < 3; ++i) ASSERT_NE(cache.Get("b"), nullptr);
  // The new "a" needs both slots, and "b" is hotter: rejected. The old "a"
  // is gone all the same.
  cache.Put("a", MakeTile(4, 8, 9.0));
  EXPECT_EQ(cache.Get("a"), nullptr);
  const TileCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.rejections, 1);
  EXPECT_EQ(stats.resident_tiles, 1);
  EXPECT_EQ(stats.resident_bytes, kTileMemoryBytes);
}

TEST(TileCacheTest, NonPositiveCapacityDisablesCaching) {
  TileCache cache(0);
  cache.Put("a", MakeTile(4, 4, 1.0));
  EXPECT_EQ(cache.Get("a"), nullptr);
}

TEST(TileCacheTest, PutReplacesExistingEntry) {
  TileCache cache(4 * kTileBytes);
  cache.Put("a", MakeTile(4, 4, 1.0));
  cache.Put("a", MakeTile(4, 4, 9.0));
  auto got = cache.Get("a");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->At(0, 0), 9.0);
  EXPECT_EQ(cache.Stats().resident_tiles, 1);
}

TEST(TileCacheTest, InvalidateDropsKeyAndPrefixDropsSubtree) {
  TileCache cache(16 * kTileBytes);
  cache.Put("/matrix/A/t_0_0", MakeTile(4, 4, 1.0));
  cache.Put("/matrix/A/t_0_1", MakeTile(4, 4, 2.0));
  cache.Put("/matrix/AB/t_0_0", MakeTile(4, 4, 3.0));
  cache.Invalidate("/matrix/A/t_0_0");
  EXPECT_EQ(cache.Get("/matrix/A/t_0_0"), nullptr);
  EXPECT_NE(cache.Get("/matrix/A/t_0_1"), nullptr);
  EXPECT_EQ(cache.InvalidatePrefix("/matrix/A/"), 1);
  EXPECT_EQ(cache.Get("/matrix/A/t_0_1"), nullptr);
  // Prefix match is exact: /matrix/AB is not under /matrix/A/.
  EXPECT_NE(cache.Get("/matrix/AB/t_0_0"), nullptr);
}

TEST(TileCacheTest, ConcurrentMixedOperationsStayConsistent) {
  // Small capacity forces constant eviction while 8 threads hammer
  // overlapping keys. Every hit must return the exact tile stored under
  // that key (value = key index), never a torn or mismatched payload.
  TileCache cache(8 * kTileBytes);
  constexpr int kThreads = 8;
  constexpr int kKeys = 32;
  constexpr int kOpsPerThread = 4000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t]() {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int key_index = (i * 7 + t * 13) % kKeys;
        const std::string key = StrCat("k", key_index);
        if (auto hit = cache.Get(key)) {
          ASSERT_EQ(hit->At(0, 0), static_cast<double>(key_index))
              << "cache returned another key's tile";
        } else {
          cache.Put(key, MakeTile(4, 4, static_cast<double>(key_index)));
        }
        if (i % 97 == 0) cache.Invalidate(key);
        if (i % 501 == 0) cache.InvalidatePrefix("k1");
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const TileCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.lookups(), kThreads * kOpsPerThread);
  EXPECT_LE(stats.resident_bytes, cache.capacity_bytes());
  EXPECT_GT(stats.hits, 0);
  EXPECT_GT(stats.evictions, 0);
}

TEST(TileCacheGroupTest, NodesAreIsolatedAndStatsSum) {
  TileCacheGroup group(/*num_nodes=*/3, /*bytes_per_node=*/16 * kTileBytes);
  group.node(0)->Put("a", MakeTile(4, 4, 1.0));
  EXPECT_NE(group.node(0)->Get("a"), nullptr);
  EXPECT_EQ(group.node(1)->Get("a"), nullptr);  // per-node, not shared
  EXPECT_EQ(group.node(-1), nullptr);           // client reads: no cache
  EXPECT_EQ(group.node(3), nullptr);
  const TileCacheStats total = group.TotalStats();
  EXPECT_EQ(total.hits, 1);
  EXPECT_EQ(total.misses, 1);
  group.InvalidateAll("a");
  EXPECT_EQ(group.node(0)->Get("a"), nullptr);
}

TEST(TileCacheTest, BudgetLeavesRoomAfterSlotWorkingSets) {
  // 8 GB machine, 2 slots, 80% of each slot's share reserved for tasks:
  // cache gets the remaining 20% = 1.6 GB.
  ASSERT_EQ(kTaskMemoryFraction, 0.8);
  const double memory = 8.0 * (1 << 30);
  const int64_t budget = NodeTileCacheBudget(memory, 2);
  EXPECT_EQ(budget, static_cast<int64_t>(memory * 0.2));
  // Each slot reserves its share, so the slot count does not move it.
  EXPECT_EQ(NodeTileCacheBudget(memory, 4), budget);
}

// ---------------------------------------------------------------------------
// DfsTileStore integration
// ---------------------------------------------------------------------------

DfsOptions SmallDfs() {
  DfsOptions o;
  o.num_nodes = 4;
  o.replication = 2;
  return o;
}

TEST(DfsTileStoreCacheTest, SecondReadServedFromCacheSkipsDfs) {
  SimDfs dfs(SmallDfs());
  DfsTileStore store(&dfs, /*verify_checksums=*/true);
  TileCacheGroup caches(4, 1 << 20);
  store.AttachCaches(&caches);

  ASSERT_TRUE(store.Put("m", TileId{0, 0}, MakeTile(4, 4, 5.0), 0).ok());
  // A different node misses once, then hits; the DFS sees exactly one read.
  ASSERT_TRUE(store.Get("m", TileId{0, 0}, 1).ok());
  const int64_t dfs_reads_after_first = dfs.TotalStats().reads;
  auto again = store.Get("m", TileId{0, 0}, 1);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->At(0, 0), 5.0);
  EXPECT_EQ(dfs.TotalStats().reads, dfs_reads_after_first);
  // Writer node 0 was seeded at Put time, so its first read already hits.
  ASSERT_TRUE(store.Get("m", TileId{0, 0}, 0).ok());
  EXPECT_EQ(dfs.TotalStats().reads, dfs_reads_after_first);
  EXPECT_GE(caches.TotalStats().hits, 2);
}

TEST(DfsTileStoreCacheTest, OverwriteInvalidatesEveryNodesCachedCopy) {
  SimDfs dfs(SmallDfs());
  DfsTileStore store(&dfs);
  TileCacheGroup caches(4, 1 << 20);
  store.AttachCaches(&caches);

  ASSERT_TRUE(store.Put("m", TileId{0, 0}, MakeTile(4, 4, 1.0), 0).ok());
  for (int node = 0; node < 4; ++node) {
    ASSERT_TRUE(store.Get("m", TileId{0, 0}, node).ok());
  }
  ASSERT_TRUE(store.Put("m", TileId{0, 0}, MakeTile(4, 4, 2.0), 1).ok());
  for (int node = 0; node < 4; ++node) {
    auto got = store.Get("m", TileId{0, 0}, node);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ((*got)->At(0, 0), 2.0) << "node " << node << " served stale data";
  }
}

TEST(DfsTileStoreCacheTest, DeleteMatrixDropsCachedTiles) {
  SimDfs dfs(SmallDfs());
  DfsTileStore store(&dfs);
  TileCacheGroup caches(4, 1 << 20);
  store.AttachCaches(&caches);

  ASSERT_TRUE(store.Put("m", TileId{0, 0}, MakeTile(4, 4, 1.0), 0).ok());
  ASSERT_TRUE(store.Get("m", TileId{0, 0}, 2).ok());
  ASSERT_TRUE(store.DeleteMatrix("m").ok());
  EXPECT_FALSE(store.Get("m", TileId{0, 0}, 2).ok());
  EXPECT_FALSE(store.Get("m", TileId{0, 0}, 0).ok());
}

TEST(DfsTileStoreCacheTest, PrefetchedRequestIsCountedOnce) {
  // Node 0's cache holds one tile, R, requested twice. A candidate X
  // requested twice through GetAsync ties R and must stay out: if the pool
  // worker's fetch looked the tile up again, each GetAsync would count
  // twice and X would displace R.
  SimDfs dfs(SmallDfs());
  DfsTileStore store(&dfs, /*verify_checksums=*/true);
  TileCacheGroup caches(4, kTileMemoryBytes);
  store.AttachCaches(&caches);
  MetricsRegistry metrics;
  store.AttachMetrics(&metrics);
  store.EnablePrefetch(2);

  ASSERT_TRUE(store.Put("m", TileId{0, 0}, MakeTile(4, 4, 1.0), 0).ok());
  ASSERT_TRUE(store.Put("m", TileId{0, 1}, MakeTile(4, 4, 2.0), 1).ok());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(store.Get("m", TileId{0, 0}, 0).ok());
  }
  for (int i = 0; i < 2; ++i) {
    auto got = store.GetAsync("m", TileId{0, 1}, 0).Await();
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ((*got)->At(0, 0), 2.0);
  }
  // The second GetAsync may join the first fetch before the pool worker
  // unpublishes it, so one or two Puts of X reach the cache.
  const TileCacheStats node0 = caches.node(0)->Stats();
  EXPECT_GE(node0.rejections, 1);
  EXPECT_EQ(node0.insertions, 1) << "only R's write landed";
  EXPECT_EQ(node0.resident_tiles, 1);
  EXPECT_EQ(node0.misses, 2) << "one lookup per GetAsync";
  EXPECT_EQ(metrics.Snapshot().CounterOr("cache.misses", -1), node0.misses);

  const int64_t reads = dfs.TotalStats().reads;
  auto resident = store.Get("m", TileId{0, 0}, 0);
  ASSERT_TRUE(resident.ok());
  EXPECT_EQ((*resident)->At(0, 0), 1.0);
  EXPECT_EQ(dfs.TotalStats().reads, reads) << "R was displaced";
}

TEST(DfsTileStoreCacheTest, ChecksumStillCatchesCorruptionOnMiss) {
  SimDfs dfs(SmallDfs());
  DfsTileStore store(&dfs, /*verify_checksums=*/true);
  TileCacheGroup caches(4, 1 << 20);
  store.AttachCaches(&caches);

  ASSERT_TRUE(store.Put("m", TileId{0, 0}, MakeTile(4, 4, 1.0), 0).ok());
  // Corrupt the block behind the store's back, then drop the cached copies
  // so the next read must go to the DFS: verification still fires.
  auto corrupted = MakeTile(4, 4, 666.0);
  ASSERT_TRUE(dfs.Write(DfsTileStore::TilePath("m", TileId{0, 0}),
                        corrupted->SizeBytes(), 0, corrupted).ok());
  caches.Clear();
  auto got = store.Get("m", TileId{0, 0}, 0);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInternal);
  EXPECT_NE(got.status().message().find("checksum"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: a real multiply must be bit-identical with and without the
// cache, under concurrent task slots re-reading shared input tiles.
// ---------------------------------------------------------------------------

Result<PlanStats> RunRealMultiply(bool enable_cache, TiledMatrix* c_out,
                                  SimDfs* dfs, DfsTileStore* store) {
  TiledMatrix a{"A", TileLayout::Square(512, 512, 128)};
  TiledMatrix b{"B", TileLayout::Square(512, 512, 128)};
  TiledMatrix c{"C", TileLayout::Square(512, 512, 128)};
  Rng rng(42);  // same seed both runs -> identical inputs
  CUMULON_RETURN_IF_ERROR(
      GenerateMatrix(a, FillKind::kGaussian, 0, &rng, store));
  CUMULON_RETURN_IF_ERROR(
      GenerateMatrix(b, FillKind::kGaussian, 0, &rng, store));

  ClusterConfig cluster{MachineProfile{}, 4, 2};
  RealEngineOptions engine_options;
  engine_options.enable_tile_cache = enable_cache;
  engine_options.cache_bytes_per_node = enable_cache ? (64 << 20) : 0;
  RealEngine engine(cluster, engine_options);
  store->AttachCaches(engine.tile_caches());

  TileOpCostModel cost;
  ExecutorOptions exec_options;
  exec_options.job_startup_seconds = 0.0;
  Executor executor(store, &engine, &cost, exec_options);
  PhysicalPlan plan;
  CUMULON_RETURN_IF_ERROR(AddMatMul(a, b, c, MatMulParams{1, 1, 0}, {}, &plan));
  auto stats = executor.Run(plan);
  store->AttachCaches(nullptr);
  *c_out = c;
  (void)dfs;
  return stats;
}

TEST(ExecCacheTest, RealMultiplyBitIdenticalWithAndWithoutCache) {
  SimDfs dfs_off(SmallDfs()), dfs_on(SmallDfs());
  DfsTileStore store_off(&dfs_off, /*verify_checksums=*/true);
  DfsTileStore store_on(&dfs_on, /*verify_checksums=*/true);

  TiledMatrix c_off{"", TileLayout::Square(1, 1, 1)};
  TiledMatrix c_on = c_off;
  auto stats_off = RunRealMultiply(false, &c_off, &dfs_off, &store_off);
  ASSERT_TRUE(stats_off.ok()) << stats_off.status();
  auto stats_on = RunRealMultiply(true, &c_on, &dfs_on, &store_on);
  ASSERT_TRUE(stats_on.ok()) << stats_on.status();

  EXPECT_EQ(stats_off->cache_hits, 0);
  EXPECT_GT(stats_on->cache_hits, 0) << "cache never hit; test is vacuous";

  // Bit-identical outputs, tile by tile.
  const TileLayout& L = c_off.layout;
  for (int64_t gr = 0; gr < L.grid_rows(); ++gr) {
    for (int64_t gc = 0; gc < L.grid_cols(); ++gc) {
      auto off = store_off.Get(c_off.name, TileId{gr, gc}, -1);
      auto on = store_on.Get(c_on.name, TileId{gr, gc}, -1);
      ASSERT_TRUE(off.ok()) << off.status();
      ASSERT_TRUE(on.ok()) << on.status();
      ASSERT_EQ((*off)->size(), (*on)->size());
      for (int64_t i = 0; i < (*off)->size(); ++i) {
        ASSERT_EQ((*off)->data()[i], (*on)->data()[i])
            << "tile (" << gr << "," << gc << ") differs at element " << i;
      }
    }
  }
}

}  // namespace
}  // namespace cumulon
