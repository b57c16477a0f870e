// E19 — out-of-core streaming execution under a per-node memory budget.
// A blocked multiply whose tasks pin operand panels through the budgeted
// TaskTileReader runs at budgets from 2x the node working set down to
// 0.1x, against the unbudgeted resident baseline. The table shows the
// price of each budget: spilled and re-fetched panel traffic rising as
// the window shrinks, wall time following the extra DFS reads, and the
// ledger peak always at or under the cap.
//
// Acceptance (CHECK-enforced, not just printed):
//   - every budgeted run's ledger peak stays <= its budget (hard cap);
//   - the 0.25x run — working set 4x the budget — completes with outputs
//     bit-identical to the resident baseline and nonzero exec.spill.*
//     eviction AND re-fetch traffic;
//   - the resident baseline spills nothing.
//
// A simulation section sweeps the same budgets through the cost model's
// streaming term (PredictorOptions::memory_budget_bytes ->
// StreamingRefetchBytes), showing the predicted stream-vs-resident
// crossover: predicted time is flat while the working set fits and grows
// once it does not.
//
// Flags: --quick (small shapes, 1 rep; the CI configuration),
//        --json FILE (machine-readable rows for BENCH_e19_oom.json).

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace cumulon::bench {
namespace {

bool g_quick = false;

struct Outcome {
  double seconds = 0.0;
  int64_t spill_evictions = 0;
  int64_t spill_evicted_bytes = 0;
  int64_t spill_refetches = 0;
  int64_t spill_refetch_bytes = 0;
  int64_t spill_unpinned = 0;
  int64_t peak_bytes = 0;
  // Output tiles of C, raw payloads, for bit-identity checks.
  std::map<std::pair<int64_t, int64_t>, std::vector<double>> c_tiles;
};

int64_t Dim() { return g_quick ? 512 : 1024; }
constexpr int64_t kTile = 128;
constexpr int64_t kSlots = 2;
const MatMulParams kParams{2, 2, 0};  // blocked: A panels reused across j

/// Aligned resident footprint of one tile.
int64_t TileMem() { return AlignedFootprintBytes(kTile * kTile * 8); }

/// Per-node working set of the blocked multiply: each slot's task pins a
/// bi x gk A panel, a gk x bj B panel, and the bi x bj accumulators.
int64_t NodeWorkingSetBytes() {
  const int64_t gk = Dim() / kTile;
  const int64_t task_tiles =
      kParams.bi * gk + gk * kParams.bj + kParams.bi * kParams.bj;
  return kSlots * task_tiles * TileMem();
}

Outcome RunReal(int64_t memory_budget_bytes) {
  DfsOptions dfs_options;
  dfs_options.num_nodes = 4;
  dfs_options.replication = 2;
  dfs_options.seed = 9;
  // Injected DFS service time keeps the re-fetch traffic visible in wall
  // time (the point of the sweep), without drowning compute entirely.
  dfs_options.read_latency_seconds = 0.002;
  dfs_options.read_bytes_per_sec = 256.0 * (1 << 20);
  SimDfs dfs(dfs_options);
  DfsTileStore store(&dfs, /*verify_checksums=*/true);
  store.EnablePrefetch(/*num_threads=*/8);

  ClusterConfig cluster{MachineProfile{}, 4, static_cast<int>(kSlots)};
  RealEngine engine(cluster, RealEngineOptions{});

  TileOpCostModel cost;
  ExecutorOptions exec_options;
  exec_options.job_startup_seconds = 0.0;
  exec_options.prefetch_budget_bytes = 2 * TileMem();
  exec_options.memory_budget_bytes = memory_budget_bytes;
  Executor executor(&store, &engine, &cost, exec_options);

  PhysicalPlan plan;
  Rng rng(11);
  TiledMatrix a = Square("A", Dim(), kTile);
  TiledMatrix b = Square("B", Dim(), kTile);
  TiledMatrix c = Square("C", Dim(), kTile);
  CUMULON_CHECK(GenerateMatrix(a, FillKind::kGaussian, 0, &rng, &store).ok());
  CUMULON_CHECK(GenerateMatrix(b, FillKind::kGaussian, 0, &rng, &store).ok());
  CUMULON_CHECK(AddMatMul(a, b, c, kParams, {}, &plan).ok());

  auto stats = executor.Run(plan);
  CUMULON_CHECK(stats.ok()) << stats.status();

  Outcome outcome;
  outcome.seconds = stats->total_seconds;
  outcome.spill_evictions = stats->spill_evictions;
  outcome.spill_evicted_bytes = stats->spill_evicted_bytes;
  outcome.spill_refetches = stats->spill_refetches;
  outcome.spill_refetch_bytes = stats->spill_refetch_bytes;
  outcome.spill_unpinned = stats->spill_unpinned_reads;
  outcome.peak_bytes = stats->memory_peak_bytes;
  for (int64_t gr = 0; gr < c.layout.grid_rows(); ++gr) {
    for (int64_t gc = 0; gc < c.layout.grid_cols(); ++gc) {
      auto tile = store.Get(c.name, TileId{gr, gc}, -1);
      CUMULON_CHECK(tile.ok()) << tile.status();
      outcome.c_tiles[{gr, gc}] = std::vector<double>(
          (*tile)->data(), (*tile)->data() + (*tile)->size());
    }
  }
  return outcome;
}

void CheckBitIdentical(const Outcome& baseline, const Outcome& budgeted,
                       double factor) {
  CUMULON_CHECK(baseline.c_tiles.size() == budgeted.c_tiles.size());
  for (const auto& [id, base_tile] : baseline.c_tiles) {
    const auto it = budgeted.c_tiles.find(id);
    CUMULON_CHECK(it != budgeted.c_tiles.end());
    CUMULON_CHECK(base_tile.size() == it->second.size());
    for (size_t i = 0; i < base_tile.size(); ++i) {
      CUMULON_CHECK(base_tile[i] == it->second[i])
          << "C tile (" << id.first << "," << id.second << ") element " << i
          << " differs at budget factor " << factor
          << " — streamed execution must be bit-identical";
    }
  }
}

struct JsonRow {
  double factor;
  int64_t budget_bytes;
  double seconds;
  int64_t evictions, refetches, refetch_bytes, unpinned, peak_bytes;
};

std::vector<JsonRow> g_rows;

void RunRealSection() {
  const int64_t ws = NodeWorkingSetBytes();
  std::printf("real 4x%lld slots, multiply %lld^3 (t=%lld), blocked "
              "bi=2 bj=2; per-node working set %.1f MiB:\n",
              static_cast<long long>(kSlots),
              static_cast<long long>(Dim()), static_cast<long long>(kTile),
              static_cast<double>(ws) / (1 << 20));
  std::printf("%-10s %11s %9s %9s %10s %12s %9s %11s\n", "budget", "bytes",
              "time", "evicted", "refetched", "refetch MiB", "unpinned",
              "peak MiB");
  PrintRule();

  const Outcome baseline = RunReal(0);
  CUMULON_CHECK(baseline.spill_evictions == 0)
      << "resident baseline must not spill";
  CUMULON_CHECK(baseline.peak_bytes == 0)
      << "resident baseline runs without a ledger";
  std::printf("%-10s %11s %8.3fs %9s %10s %12s %9s %11s\n", "resident", "-",
              baseline.seconds, "0", "0", "0.0", "0", "-");

  const double factors[] = {2.0, 1.0, 0.5, 0.25, 0.1};
  for (double factor : factors) {
    const int64_t budget = static_cast<int64_t>(factor * ws);
    const Outcome o = RunReal(budget);
    // The two CHECK-enforced acceptance criteria of this experiment:
    // streamed outputs are bit-identical to resident execution, and the
    // ledger's hard cap held.
    CheckBitIdentical(baseline, o, factor);
    CUMULON_CHECK(o.peak_bytes <= budget)
        << "ledger peak " << o.peak_bytes << " exceeds budget " << budget;
    if (factor <= 0.25) {
      // Working set >= 4x the budget: the run cannot be resident, so some
      // spill mechanism must have actually carried it — pin-window
      // evict/re-fetch, or (when the pin share degenerates to nothing)
      // unpinned streaming.
      CUMULON_CHECK(o.spill_evictions + o.spill_refetches + o.spill_unpinned >
                    0)
          << "factor " << factor << ": no spill activity despite 1/"
          << 1 / factor << " budget";
    }
    if (factor == 0.25) {
      // At 4x oversubscription the pin window still exists, so the blocked
      // multiply's panel reuse must show up as evict + re-fetch traffic.
      CUMULON_CHECK(o.spill_evictions > 0)
          << "factor " << factor << ": no evictions despite 1/" << 1 / factor
          << " budget";
      CUMULON_CHECK(o.spill_refetches > 0)
          << "factor " << factor << ": no re-fetches despite panel reuse";
    }
    std::printf("%-10.2f %11lld %8.3fs %9lld %10lld %12.1f %9lld %11.1f\n",
                factor, static_cast<long long>(budget), o.seconds,
                static_cast<long long>(o.spill_evictions),
                static_cast<long long>(o.spill_refetches),
                static_cast<double>(o.spill_refetch_bytes) / (1 << 20),
                static_cast<long long>(o.spill_unpinned),
                static_cast<double>(o.peak_bytes) / (1 << 20));
    g_rows.push_back(JsonRow{factor, budget, o.seconds, o.spill_evictions,
                             o.spill_refetches, o.spill_refetch_bytes,
                             o.spill_unpinned, o.peak_bytes});
  }
  std::printf("acceptance: 0.25x-budget run bit-identical to resident, "
              "spills > 0, peak <= budget (CHECK-enforced)\n");
}

// The cost model's view of the same sweep: predicted time through the
// declared-cost streaming term. Flat while the per-task working set fits
// the pin share, rising once panels must stream.
void RunSimSection() {
  std::printf("\nsimulated 16 x m1.large, multiply 16384^3 (t=1024), "
              "predicted stream-vs-resident crossover:\n");
  std::printf("%-10s %14s %12s\n", "budget", "bytes/node", "pred time");
  PrintRule();
  const int64_t tile_mem = AlignedFootprintBytes(1024 * 1024 * 8);
  const int64_t gk = 16384 / 1024;
  const int64_t ws = 2 * (2 * gk + gk * 2 + 4) * tile_mem;
  for (double factor : {0.0, 2.0, 1.0, 0.5, 0.25, 0.1}) {
    const int64_t budget = static_cast<int64_t>(factor * ws);
    SimWorld world(DefaultCluster());
    TiledMatrix a = Square("A", 16384, 1024);
    TiledMatrix b = Square("B", 16384, 1024);
    TiledMatrix c = Square("C", 16384, 1024);
    world.LoadInput(a);
    world.LoadInput(b);
    PhysicalPlan plan;
    CUMULON_CHECK(AddMatMul(a, b, c, MatMulParams{2, 2, 0}, {}, &plan).ok());
    ExecutorOptions options;
    options.real_mode = false;
    options.job_startup_seconds = 3.0;
    options.memory_budget_bytes = budget;
    TileOpCostModel cost;
    Executor executor(world.store(), world.engine(), &cost, options);
    auto stats = executor.Run(plan);
    CUMULON_CHECK(stats.ok()) << stats.status();
    std::printf("%-10s %14lld %12s\n",
                factor == 0.0 ? "resident" : std::to_string(factor).c_str(),
                static_cast<long long>(budget),
                FormatDuration(stats->total_seconds).c_str());
  }
}

void WriteJson(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  CUMULON_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f, "{\"bench\":\"e19_oom\",\"quick\":%s,\"rows\":[",
               g_quick ? "true" : "false");
  for (size_t i = 0; i < g_rows.size(); ++i) {
    const JsonRow& r = g_rows[i];
    std::fprintf(f,
                 "%s{\"budget_factor\":%.2f,\"budget_bytes\":%lld,"
                 "\"seconds\":%.6f,\"spill_evictions\":%lld,"
                 "\"spill_refetches\":%lld,\"spill_refetch_bytes\":%lld,"
                 "\"spill_unpinned\":%lld,\"peak_bytes\":%lld}",
                 i == 0 ? "" : ",", r.factor,
                 static_cast<long long>(r.budget_bytes), r.seconds,
                 static_cast<long long>(r.evictions),
                 static_cast<long long>(r.refetches),
                 static_cast<long long>(r.refetch_bytes),
                 static_cast<long long>(r.unpinned),
                 static_cast<long long>(r.peak_bytes));
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("json: %zu rows -> %s\n", g_rows.size(), path.c_str());
}

void Run(const std::string& json_path) {
  PrintHeader("E19: out-of-core streaming under a per-node memory budget");
  RunRealSection();
  RunSimSection();
  if (!json_path.empty()) WriteJson(json_path);
}

}  // namespace
}  // namespace cumulon::bench

int main(int argc, char** argv) {
  cumulon::bench::ObsSession obs(argc, argv);
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) cumulon::bench::g_quick = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[i + 1];
    }
  }
  cumulon::bench::Run(json_path);
  return 0;
}
