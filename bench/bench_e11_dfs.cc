// E11 — DFS behaviour under the multiply workloads: bytes moved,
// replication overhead, and the locality hit rate that makes Cumulon's
// map-only reads cheap.
//
// Paper expectation: with 3-way replication and locality-aware placement
// (PlaceTasks: a task goes to a machine holding its input replicas while
// that machine is under its share of the job), the large majority of task
// input bytes are served from local disk.

#include "bench/bench_util.h"

namespace cumulon::bench {
namespace {

void ReplicationSweep() {
  PrintHeader("E11a: storage & placement vs replication factor");
  std::printf("%-6s %14s %14s %12s\n", "repl", "logical bytes",
              "stored bytes", "files");
  PrintRule();
  for (int repl : {1, 2, 3}) {
    DfsOptions options;
    options.num_nodes = 16;
    options.replication = repl;
    SimDfs dfs(options);
    DfsTileStore store(&dfs);
    TiledMatrix a = Square("A", 16384, 2048);
    for (int64_t r = 0; r < a.layout.grid_rows(); ++r) {
      for (int64_t c = 0; c < a.layout.grid_cols(); ++c) {
        CUMULON_CHECK(store.PutMeta("A", TileId{r, c},
                                    16 + 2048 * 2048 * 8, 0).ok());
      }
    }
    int64_t stored = 0;
    for (int n = 0; n < options.num_nodes; ++n) {
      stored += dfs.NodeStoredBytes(n);
    }
    std::printf("%-6d %14s %14s %12lld\n", repl,
                FormatBytes(dfs.TotalStoredBytes()).c_str(),
                FormatBytes(stored).c_str(),
                static_cast<long long>(dfs.NumFiles()));
  }
}

void BalanceCheck() {
  PrintHeader("E11b: replica balance across 16 nodes (3-way replication)");
  DfsOptions options;
  options.num_nodes = 16;
  options.replication = 3;
  SimDfs dfs(options);
  DfsTileStore store(&dfs);
  TiledMatrix a = Square("A", 32768, 2048);
  for (int64_t r = 0; r < a.layout.grid_rows(); ++r) {
    for (int64_t c = 0; c < a.layout.grid_cols(); ++c) {
      CUMULON_CHECK(store.PutMeta("A", TileId{r, c},
                                  16 + 2048 * 2048 * 8, -1).ok());
    }
  }
  int64_t min_bytes = INT64_MAX, max_bytes = 0;
  for (int n = 0; n < options.num_nodes; ++n) {
    const int64_t bytes = dfs.NodeStoredBytes(n);
    min_bytes = std::min(min_bytes, bytes);
    max_bytes = std::max(max_bytes, bytes);
  }
  std::printf("per-node stored bytes: min %s, max %s (imbalance %.2fx)\n",
              FormatBytes(min_bytes).c_str(), FormatBytes(max_bytes).c_str(),
              static_cast<double>(max_bytes) / min_bytes);
}

void LocalityUnderWorkload() {
  PrintHeader("E11c: task locality of a multiply job vs replication");
  std::printf("%-6s %12s %14s\n", "repl", "tasks", "non-local tasks");
  PrintRule();
  for (int repl : {1, 2, 3}) {
    auto machine = FindMachine("m1.large");
    CUMULON_CHECK(machine.ok());
    SimWorld world(ClusterConfig{machine.value(), 16, 2}, repl);
    TiledMatrix a = Square("A", 32768, 2048);
    TiledMatrix b = Square("B", 32768, 2048);
    world.LoadInput(a);
    world.LoadInput(b);
    TiledMatrix c = Square("C", 32768, 2048);
    PhysicalPlan plan;
    CUMULON_CHECK(AddMatMul(a, b, c, MatMulParams{2, 2, 0}, {}, &plan).ok());
    PlanStats stats = world.Run(plan);
    std::printf("%-6d %12d %14d\n", repl, stats.total_tasks,
                stats.non_local_tasks);
  }
}

void FailureRecovery() {
  PrintHeader("E11d: node failure & re-replication traffic (16 nodes)");
  std::printf("%-6s %16s %16s %12s\n", "repl", "blocks lost",
              "recovery bytes", "data loss?");
  PrintRule();
  for (int repl : {1, 2, 3}) {
    DfsOptions options;
    options.num_nodes = 16;
    options.replication = repl;
    SimDfs dfs(options);
    DfsTileStore store(&dfs);
    TiledMatrix a = Square("A", 32768, 2048);
    for (int64_t r = 0; r < a.layout.grid_rows(); ++r) {
      for (int64_t c = 0; c < a.layout.grid_cols(); ++c) {
        CUMULON_CHECK(store.PutMeta("A", TileId{r, c},
                                    16 + 2048 * 2048 * 8, -1).ok());
      }
    }
    const int64_t lost = dfs.KillNode(0);
    const int64_t copied = dfs.ReReplicate();
    // Any tile unreadable after recovery?
    bool data_loss = false;
    for (int64_t r = 0; r < a.layout.grid_rows() && !data_loss; ++r) {
      for (int64_t c = 0; c < a.layout.grid_cols(); ++c) {
        if (!dfs.Read(DfsTileStore::TilePath("A", TileId{r, c}), 1).ok()) {
          data_loss = true;
          break;
        }
      }
    }
    std::printf("%-6d %16lld %16s %12s\n", repl,
                static_cast<long long>(lost), FormatBytes(copied).c_str(),
                data_loss ? "YES" : "no");
  }
}

}  // namespace
}  // namespace cumulon::bench

int main(int argc, char** argv) {
  cumulon::bench::ObsSession obs(argc, argv);
  cumulon::bench::ReplicationSweep();
  cumulon::bench::BalanceCheck();
  cumulon::bench::LocalityUnderWorkload();
  cumulon::bench::FailureRecovery();
  return 0;
}
