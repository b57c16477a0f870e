// A5 — ablation: node-local tile cache. A blocked multiply re-reads every
// input tile from many tasks (each A tile once per task column), so a
// per-node cache turns most DFS reads — and their checksum passes — into
// memory lookups. A streaming scan reads every tile exactly once and gets
// nothing from the cache; it bounds the overhead of cache bookkeeping.
//
// Expectation: the reuse-heavy multiply hits on >50% of its lookups. This
// DFS injects no read latency and the checksum pass runs at memory speed,
// so a hit saves little time here: about 1.2-1.6x, varying run to run.
// The cache's win on slow storage shows in A6 and the gnmf-io workload of
// bench/suite. The streaming scan gets no hits; the gap between its two
// rows is warm-up of whichever configuration runs first, and host noise.
// In simulation the cache-aware cost model charges only expected misses,
// so predicted times drop the same way measured ones do.

#include <algorithm>

#include "bench/bench_util.h"

namespace cumulon::bench {
namespace {

struct RealOutcome {
  double seconds = 0.0;
  int64_t hits = 0;
  int64_t misses = 0;
  double hit_rate = 0.0;
};

// Real execution of one plan over a checksum-verified DFS store on a
// small in-process "cluster"; the cache (when enabled) is the engines',
// sized explicitly so the experiment does not depend on host RAM.
RealOutcome RunReal(bool enable_cache, bool reuse_heavy) {
  DfsOptions dfs_options;
  dfs_options.num_nodes = 4;
  dfs_options.replication = 2;
  dfs_options.seed = 9;
  SimDfs dfs(dfs_options);
  DfsTileStore store(&dfs, /*verify_checksums=*/true);

  ClusterConfig cluster{MachineProfile{}, 4, 2};
  RealEngineOptions engine_options;
  engine_options.enable_tile_cache = enable_cache;
  engine_options.cache_bytes_per_node = 256ll << 20;
  RealEngine engine(cluster, engine_options);
  store.AttachCaches(engine.tile_caches());

  TileOpCostModel cost;
  ExecutorOptions exec_options;
  exec_options.job_startup_seconds = 0.0;
  Executor executor(&store, &engine, &cost, exec_options);

  PhysicalPlan plan;
  Rng rng(11);
  if (reuse_heavy) {
    // 16x16 tile grid, one task per C tile: every input tile is fetched by
    // 16 different tasks.
    TiledMatrix a = Square("A", 2048, 128);
    TiledMatrix b = Square("B", 2048, 128);
    TiledMatrix c = Square("C", 2048, 128);
    CUMULON_CHECK(GenerateMatrix(a, FillKind::kGaussian, 0, &rng, &store).ok());
    CUMULON_CHECK(GenerateMatrix(b, FillKind::kGaussian, 0, &rng, &store).ok());
    CUMULON_CHECK(AddMatMul(a, b, c, MatMulParams{1, 1, 0}, {}, &plan).ok());
  } else {
    // Streaming: every tile read exactly once; the cache can only cost.
    TiledMatrix a = Square("A", 4096, 256);
    TiledMatrix out = Square("B", 4096, 256);
    CUMULON_CHECK(GenerateMatrix(a, FillKind::kGaussian, 0, &rng, &store).ok());
    CUMULON_CHECK(AddEwChain(a, out, {EwStep::Unary(UnaryOp::kSqrt)}, &plan,
                             /*tiles_per_task=*/4).ok());
  }

  // Best of 3 to shed host-scheduler noise. Caches start cold every rep so
  // the hit rate is the within-job reuse, not warmth left by earlier reps.
  RealOutcome outcome;
  outcome.seconds = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    TileCacheStats before;
    if (engine.tile_caches() != nullptr) {
      engine.tile_caches()->Clear();
      before = engine.tile_caches()->TotalStats();
    }
    auto stats = executor.Run(plan);
    CUMULON_CHECK(stats.ok()) << stats.status();
    outcome.seconds = std::min(outcome.seconds, stats->total_seconds);
    if (engine.tile_caches() != nullptr) {
      const TileCacheStats after = engine.tile_caches()->TotalStats();
      outcome.hits = after.hits - before.hits;
      outcome.misses = after.misses - before.misses;
      const int64_t lookups = outcome.hits + outcome.misses;
      outcome.hit_rate =
          lookups > 0 ? static_cast<double>(outcome.hits) / lookups : 0.0;
    }
  }
  return outcome;
}

void RunRealSection() {
  std::printf("%-24s %-6s %10s %9s %14s %9s\n", "workload", "cache", "time",
              "speedup", "hits/lookups", "hit rate");
  PrintRule();
  for (bool reuse_heavy : {true, false}) {
    const char* label =
        reuse_heavy ? "multiply 2048^3 (t=128)" : "scan 4096^2 (t=256)";
    const RealOutcome off = RunReal(false, reuse_heavy);
    const RealOutcome on = RunReal(true, reuse_heavy);
    std::printf("%-24s %-6s %9.3fs %9s %14s %9s\n", label, "off", off.seconds,
                "1.00x", "-", "-");
    char lookups[64], speedup[32];
    std::snprintf(lookups, sizeof(lookups), "%lld/%lld",
                  static_cast<long long>(on.hits),
                  static_cast<long long>(on.hits + on.misses));
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  off.seconds / on.seconds);
    std::printf("%-24s %-6s %9.3fs %9s %14s %8.1f%%\n", label, "on",
                on.seconds, speedup, lookups, 100.0 * on.hit_rate);
  }
}

// Simulation: same ablation at cluster scale. The engine owns the per-node
// cache budget; MatMulJob declares the expected cache-served bytes, and
// the simulator charges disk/network only for the misses.
void RunSimSection() {
  // 32x32 tile grid over 16 machines: every input tile has 32 reading
  // tasks but only 16 nodes, so half the fetches are expected cache hits.
  std::printf("\nsimulated 16 x m1.large, multiply 32768^3 (t=1024):\n");
  std::printf("%-6s %12s %12s %12s %14s\n", "cache", "time", "read",
              "cached", "cached frac");
  PrintRule();
  for (bool enable_cache : {false, true}) {
    ClusterConfig cluster = DefaultCluster();
    DfsOptions dfs_options;
    dfs_options.num_nodes = cluster.num_machines;
    dfs_options.replication = 3;
    SimDfs dfs(dfs_options);
    DfsTileStore store(&dfs);
    TiledMatrix a = Square("A", 32768, 1024);
    TiledMatrix b = Square("B", 32768, 1024);
    TiledMatrix c = Square("C", 32768, 1024);
    for (const TiledMatrix& m : {a, b}) {
      for (int64_t r = 0; r < m.layout.grid_rows(); ++r) {
        for (int64_t col = 0; col < m.layout.grid_cols(); ++col) {
          CUMULON_CHECK(store.PutMeta(m.name, TileId{r, col},
                                      16 + 1024 * 1024 * 8, -1).ok());
        }
      }
    }

    SimEngineOptions sim_options;
    sim_options.enable_tile_cache = enable_cache;
    SimEngine engine(cluster, sim_options);
    TileOpCostModel cost;
    ExecutorOptions exec_options;
    exec_options.real_mode = false;
    Executor executor(&store, &engine, &cost, exec_options);

    PhysicalPlan plan;
    CUMULON_CHECK(AddMatMul(a, b, c, MatMulParams{1, 1, 0}, {}, &plan).ok());
    auto stats = executor.Run(plan);
    CUMULON_CHECK(stats.ok()) << stats.status();
    const double frac =
        stats->bytes_read > 0
            ? static_cast<double>(stats->bytes_read_cached) / stats->bytes_read
            : 0.0;
    std::printf("%-6s %12s %12s %12s %13.1f%%\n",
                enable_cache ? "on" : "off",
                FormatDuration(stats->total_seconds).c_str(),
                FormatBytes(stats->bytes_read).c_str(),
                FormatBytes(stats->bytes_read_cached).c_str(), 100.0 * frac);
  }
}

void Run() {
  PrintHeader("A5: node-local tile cache ablation (real 4x2 slots + sim)");
  RunRealSection();
  RunSimSection();
}

}  // namespace
}  // namespace cumulon::bench

int main(int argc, char** argv) {
  cumulon::bench::ObsSession obs(argc, argv);
  cumulon::bench::Run();
  return 0;
}
