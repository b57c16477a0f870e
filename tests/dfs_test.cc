#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "dfs/dfs_tile_store.h"
#include "dfs/sim_dfs.h"

namespace cumulon {
namespace {

DfsOptions SmallDfs() {
  DfsOptions o;
  o.num_nodes = 4;
  o.replication = 2;
  o.block_size = 1024;
  return o;
}

TEST(SimDfsTest, WriteReadRoundTrip) {
  SimDfs dfs(SmallDfs());
  auto payload = std::make_shared<Tile>(2, 2);
  payload->Set(1, 0, 42.0);
  ASSERT_TRUE(dfs.Write("/f", payload->SizeBytes(), 0, payload).ok());
  auto read = dfs.Read("/f", 0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), payload);
  EXPECT_EQ(read.value()->At(1, 0), 42.0);
}

TEST(SimDfsTest, ReadMissingFileIsNotFound) {
  SimDfs dfs(SmallDfs());
  EXPECT_EQ(dfs.Read("/nope", 0).status().code(), StatusCode::kNotFound);
}

TEST(SimDfsTest, FileSplitsIntoBlocks) {
  SimDfs dfs(SmallDfs());
  ASSERT_TRUE(dfs.Write("/f", 2500, 0, nullptr).ok());
  auto info = dfs.Stat("/f");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->size, 2500);
  ASSERT_EQ(info->blocks.size(), 3u);
  EXPECT_EQ(info->blocks[0].size, 1024);
  EXPECT_EQ(info->blocks[1].size, 1024);
  EXPECT_EQ(info->blocks[2].size, 452);
}

TEST(SimDfsTest, EmptyFileHasOneEmptyBlock) {
  SimDfs dfs(SmallDfs());
  ASSERT_TRUE(dfs.Write("/f", 0, 0, nullptr).ok());
  auto info = dfs.Stat("/f");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->blocks.size(), 1u);
  EXPECT_EQ(info->blocks[0].size, 0);
}

TEST(SimDfsTest, NegativeSizeRejected) {
  SimDfs dfs(SmallDfs());
  EXPECT_FALSE(dfs.Write("/f", -1, 0, nullptr).ok());
}

TEST(SimDfsTest, FirstReplicaOnWriter) {
  SimDfs dfs(SmallDfs());
  ASSERT_TRUE(dfs.Write("/f", 3000, 2, nullptr).ok());
  auto info = dfs.Stat("/f");
  ASSERT_TRUE(info.ok());
  for (const BlockInfo& block : info->blocks) {
    ASSERT_FALSE(block.replicas.empty());
    EXPECT_EQ(block.replicas[0], 2);
  }
}

TEST(SimDfsTest, ReplicasAreDistinctAndRightCount) {
  DfsOptions o = SmallDfs();
  o.replication = 3;
  SimDfs dfs(o);
  ASSERT_TRUE(dfs.Write("/f", 5000, 1, nullptr).ok());
  auto info = dfs.Stat("/f");
  ASSERT_TRUE(info.ok());
  for (const BlockInfo& block : info->blocks) {
    EXPECT_EQ(block.replicas.size(), 3u);
    std::set<int> unique(block.replicas.begin(), block.replicas.end());
    EXPECT_EQ(unique.size(), block.replicas.size());
    for (int r : block.replicas) {
      EXPECT_GE(r, 0);
      EXPECT_LT(r, o.num_nodes);
    }
  }
}

TEST(SimDfsTest, ReplicationCappedAtNodeCount) {
  DfsOptions o;
  o.num_nodes = 2;
  o.replication = 5;
  SimDfs dfs(o);
  ASSERT_TRUE(dfs.Write("/f", 10, 0, nullptr).ok());
  auto info = dfs.Stat("/f");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->blocks[0].replicas.size(), 2u);
}

TEST(SimDfsTest, LocalVsRemoteReadAccounting) {
  SimDfs dfs(SmallDfs());
  ASSERT_TRUE(dfs.Write("/f", 1000, 0, nullptr).ok());
  // Node 0 holds a replica (writer); reading from it is local.
  ASSERT_TRUE(dfs.Read("/f", 0).ok());
  DfsStats stats = dfs.TotalStats();
  EXPECT_EQ(stats.bytes_read_local, 1000);
  EXPECT_EQ(stats.bytes_read_remote, 0);

  // A node with no replica reads remotely.
  auto hosting = dfs.NodesHosting("/f");
  ASSERT_TRUE(hosting.ok());
  int outsider = -1;
  for (int n = 0; n < 4; ++n) {
    if (std::find(hosting->begin(), hosting->end(), n) == hosting->end()) {
      outsider = n;
      break;
    }
  }
  ASSERT_GE(outsider, 0) << "replication 2 of 4 nodes must leave an outsider";
  ASSERT_TRUE(dfs.Read("/f", outsider).ok());
  stats = dfs.TotalStats();
  EXPECT_EQ(stats.bytes_read_remote, 1000);
  EXPECT_NEAR(stats.locality_fraction(), 0.5, 1e-12);
}

TEST(SimDfsTest, UnknownReaderCountsRemote) {
  SimDfs dfs(SmallDfs());
  ASSERT_TRUE(dfs.Write("/f", 700, 0, nullptr).ok());
  ASSERT_TRUE(dfs.Read("/f", -1).ok());
  EXPECT_EQ(dfs.TotalStats().bytes_read_remote, 700);
}

TEST(SimDfsTest, PerNodeStats) {
  SimDfs dfs(SmallDfs());
  ASSERT_TRUE(dfs.Write("/f", 100, 1, nullptr).ok());
  ASSERT_TRUE(dfs.Read("/f", 1).ok());
  EXPECT_EQ(dfs.NodeStats(1).bytes_written, 100);
  EXPECT_EQ(dfs.NodeStats(1).bytes_read_local, 100);
  EXPECT_EQ(dfs.NodeStats(0).bytes_written, 0);
}

TEST(SimDfsTest, DeleteAndExists) {
  SimDfs dfs(SmallDfs());
  ASSERT_TRUE(dfs.Write("/f", 10, 0, nullptr).ok());
  EXPECT_TRUE(dfs.Exists("/f"));
  ASSERT_TRUE(dfs.Delete("/f").ok());
  EXPECT_FALSE(dfs.Exists("/f"));
  EXPECT_EQ(dfs.Delete("/f").code(), StatusCode::kNotFound);
}

TEST(SimDfsTest, DeletePrefixRemovesSubtreeOnly) {
  SimDfs dfs(SmallDfs());
  ASSERT_TRUE(dfs.Write("/a/1", 10, 0, nullptr).ok());
  ASSERT_TRUE(dfs.Write("/a/2", 10, 0, nullptr).ok());
  ASSERT_TRUE(dfs.Write("/ab", 10, 0, nullptr).ok());
  EXPECT_EQ(dfs.DeletePrefix("/a/"), 2);
  EXPECT_FALSE(dfs.Exists("/a/1"));
  EXPECT_TRUE(dfs.Exists("/ab"));
}

TEST(SimDfsTest, OverwriteReplacesContents) {
  SimDfs dfs(SmallDfs());
  ASSERT_TRUE(dfs.Write("/f", 100, 0, nullptr).ok());
  ASSERT_TRUE(dfs.Write("/f", 200, 1, nullptr).ok());
  auto info = dfs.Stat("/f");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->size, 200);
  EXPECT_EQ(dfs.NumFiles(), 1);
}

TEST(SimDfsTest, StoredBytesAndNodeStoredBytes) {
  DfsOptions o = SmallDfs();
  o.replication = 2;
  SimDfs dfs(o);
  ASSERT_TRUE(dfs.Write("/f", 1000, 0, nullptr).ok());
  EXPECT_EQ(dfs.TotalStoredBytes(), 1000);
  int64_t replicated = 0;
  for (int n = 0; n < o.num_nodes; ++n) replicated += dfs.NodeStoredBytes(n);
  EXPECT_EQ(replicated, 2000);  // two replicas of every block
}

TEST(SimDfsTest, ResetStatsClearsCounters) {
  SimDfs dfs(SmallDfs());
  ASSERT_TRUE(dfs.Write("/f", 10, 0, nullptr).ok());
  ASSERT_TRUE(dfs.Read("/f", 0).ok());
  dfs.ResetStats();
  DfsStats stats = dfs.TotalStats();
  EXPECT_EQ(stats.bytes_written, 0);
  EXPECT_EQ(stats.bytes_read(), 0);
  EXPECT_EQ(stats.reads, 0);
}

TEST(SimDfsTest, PlacementDeterministicPerSeed) {
  SimDfs d1(SmallDfs()), d2(SmallDfs());
  ASSERT_TRUE(d1.Write("/f", 5000, -1, nullptr).ok());
  ASSERT_TRUE(d2.Write("/f", 5000, -1, nullptr).ok());
  auto i1 = d1.Stat("/f"), i2 = d2.Stat("/f");
  ASSERT_TRUE(i1.ok() && i2.ok());
  ASSERT_EQ(i1->blocks.size(), i2->blocks.size());
  for (size_t b = 0; b < i1->blocks.size(); ++b) {
    EXPECT_EQ(i1->blocks[b].replicas, i2->blocks[b].replicas);
  }
}

// ---------------------------------------------------------------------------
// DfsTileStore
// ---------------------------------------------------------------------------

TEST(DfsTileStoreTest, PutGetRoundTripWithPayload) {
  SimDfs dfs(SmallDfs());
  DfsTileStore store(&dfs);
  auto tile = std::make_shared<Tile>(4, 4);
  tile->Set(1, 1, 7.0);
  ASSERT_TRUE(store.Put("m", TileId{0, 0}, tile, 0).ok());
  auto got = store.Get("m", TileId{0, 0}, 0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->At(1, 1), 7.0);
  // And the DFS metered the transfer.
  EXPECT_EQ(dfs.TotalStats().bytes_written, tile->SizeBytes());
  EXPECT_EQ(dfs.TotalStats().bytes_read_local, tile->SizeBytes());
}

TEST(DfsTileStoreTest, PreferredNodesMatchReplicaHolders) {
  SimDfs dfs(SmallDfs());
  DfsTileStore store(&dfs);
  auto tile = std::make_shared<Tile>(2, 2);
  ASSERT_TRUE(store.Put("m", TileId{1, 2}, tile, 3).ok());
  std::vector<int> nodes = store.PreferredNodes("m", TileId{1, 2});
  ASSERT_FALSE(nodes.empty());
  EXPECT_NE(std::find(nodes.begin(), nodes.end(), 3), nodes.end());
}

TEST(DfsTileStoreTest, PreferredNodesEmptyForMissingTile) {
  SimDfs dfs(SmallDfs());
  DfsTileStore store(&dfs);
  EXPECT_TRUE(store.PreferredNodes("m", TileId{0, 0}).empty());
}

TEST(DfsTileStoreTest, PutMetaRegistersPlacementWithoutData) {
  SimDfs dfs(SmallDfs());
  DfsTileStore store(&dfs);
  ASSERT_TRUE(store.PutMeta("m", TileId{0, 0}, 500, 2).ok());
  EXPECT_FALSE(store.PreferredNodes("m", TileId{0, 0}).empty());
  // Reading data back must fail loudly: there is no payload.
  auto got = store.Get("m", TileId{0, 0}, 2);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInternal);
}

TEST(DfsTileStoreTest, DeleteMatrixRemovesAllTiles) {
  SimDfs dfs(SmallDfs());
  DfsTileStore store(&dfs);
  auto tile = std::make_shared<Tile>(2, 2);
  ASSERT_TRUE(store.Put("m", TileId{0, 0}, tile, 0).ok());
  ASSERT_TRUE(store.Put("m", TileId{0, 1}, tile, 0).ok());
  ASSERT_TRUE(store.Put("other", TileId{0, 0}, tile, 0).ok());
  ASSERT_TRUE(store.DeleteMatrix("m").ok());
  EXPECT_FALSE(store.Get("m", TileId{0, 0}, 0).ok());
  EXPECT_TRUE(store.Get("other", TileId{0, 0}, 0).ok());
}

TEST(DfsTileStoreTest, TilePathScheme) {
  EXPECT_EQ(DfsTileStore::TilePath("W", TileId{3, 5}), "/matrix/W/t_3_5");
}

TEST(DfsTileStoreTest, ChecksumVerificationPassesOnCleanData) {
  SimDfs dfs(SmallDfs());
  DfsTileStore store(&dfs, /*verify_checksums=*/true);
  auto tile = std::make_shared<Tile>(4, 4);
  tile->Set(2, 2, 5.0);
  ASSERT_TRUE(store.Put("m", TileId{0, 0}, tile, 0).ok());
  auto got = store.Get("m", TileId{0, 0}, 0);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ((*got)->At(2, 2), 5.0);
}

TEST(DfsTileStoreTest, ChecksumVerificationCatchesCorruption) {
  SimDfs dfs(SmallDfs());
  DfsTileStore store(&dfs, /*verify_checksums=*/true);
  auto tile = std::make_shared<Tile>(4, 4);
  tile->Set(0, 0, 1.0);
  ASSERT_TRUE(store.Put("m", TileId{0, 0}, tile, 0).ok());
  // Corrupt the block behind the store's back: overwrite the DFS file
  // with a different payload while the recorded checksum stays stale.
  auto corrupted = std::make_shared<Tile>(4, 4);
  corrupted->Set(0, 0, 666.0);
  ASSERT_TRUE(dfs.Write(DfsTileStore::TilePath("m", TileId{0, 0}),
                        corrupted->SizeBytes(), 0, corrupted).ok());
  auto got = store.Get("m", TileId{0, 0}, 0);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInternal);
  EXPECT_NE(got.status().message().find("checksum"), std::string::npos);
}

TEST(DfsTileStoreTest, ChecksumCatchesEveryPayloadBitFlip) {
  SimDfs dfs(SmallDfs());
  DfsTileStore store(&dfs, /*verify_checksums=*/true);
  auto tile = std::make_shared<Tile>(8, 8);
  for (int64_t i = 0; i < tile->size(); ++i) {
    tile->mutable_data()[i] = 0.5 * static_cast<double>(i) - 7.25;
  }
  ASSERT_TRUE(store.Put("m", TileId{0, 0}, tile, 0).ok());
  const std::string path = DfsTileStore::TilePath("m", TileId{0, 0});
  const size_t payload_bits = tile->size() * sizeof(double) * 8;
  ASSERT_EQ(payload_bits, 4096u);
  int undetected = 0;
  for (size_t bit = 0; bit < payload_bits; ++bit) {
    // Overwrite the block behind the store's back with a one-bit-flipped
    // copy; the recorded checksum still describes the clean tile.
    auto corrupted = std::make_shared<Tile>(*tile);
    auto* bytes = reinterpret_cast<uint8_t*>(corrupted->mutable_data());
    bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    ASSERT_TRUE(dfs.Write(path, corrupted->SizeBytes(), 0, corrupted).ok());
    auto got = store.Get("m", TileId{0, 0}, 0);
    if (got.ok() || got.status().code() != StatusCode::kInternal) {
      ++undetected;
    }
  }
  EXPECT_EQ(undetected, 0);
}

TEST(DfsTileStoreTest, ChecksumOverwriteRefreshes) {
  SimDfs dfs(SmallDfs());
  DfsTileStore store(&dfs, /*verify_checksums=*/true);
  auto t1 = std::make_shared<Tile>(2, 2);
  t1->Set(0, 0, 1.0);
  auto t2 = std::make_shared<Tile>(2, 2);
  t2->Set(0, 0, 2.0);
  ASSERT_TRUE(store.Put("m", TileId{0, 0}, t1, 0).ok());
  ASSERT_TRUE(store.Put("m", TileId{0, 0}, t2, 0).ok());
  auto got = store.Get("m", TileId{0, 0}, 0);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ((*got)->At(0, 0), 2.0);
}

}  // namespace
}  // namespace cumulon
