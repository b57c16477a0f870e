// Out-of-core streaming execution: plans whose working sets exceed the
// per-node memory budget must spill panels, stay under the ledger cap,
// and still produce outputs bit-identical to the unbudgeted resident run
// — over the full job mix (split-k matmul + epilogue, ew chain,
// aggregate, transpose) at several budget settings. Plus the
// panel-partial aggregate building blocks.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/real_engine.h"
#include "common/rng.h"
#include "dfs/dfs_tile_store.h"
#include "dfs/sim_dfs.h"
#include "exec/executor.h"
#include "exec/physical_plan.h"
#include "matrix/tile_ops.h"
#include "matrix/tile_store.h"
#include "matrix/tiled_matrix.h"

namespace cumulon {
namespace {

constexpr int64_t kTile = 64;
constexpr int64_t kTileMem = kTile * kTile * 8;  // aligned footprint

DfsOptions SlowDfs(double latency_seconds) {
  DfsOptions o;
  o.num_nodes = 4;
  o.replication = 2;
  o.read_latency_seconds = latency_seconds;
  return o;
}

struct PipelineOutputs {
  TiledMatrix c{"", TileLayout::Square(1, 1, 1)};
  TiledMatrix ew{"", TileLayout::Square(1, 1, 1)};
  TiledMatrix agg{"", TileLayout::Square(1, 1, 1)};
  TiledMatrix t{"", TileLayout::Square(1, 1, 1)};
};

/// The prefetch_test pipeline (every job type) run under a per-node memory
/// budget. budget_bytes <= 0 = unbudgeted resident baseline. Each task
/// keeps one task-wide reader whose memoized panels are re-read across
/// output tiles — the pattern that produces re-fetches.
Status RunBudgetedPlan(int64_t budget_bytes, uint64_t seed,
                       DfsTileStore* store, PipelineOutputs* out,
                       PlanStats* stats_out,
                       MatMulParams mm_params = MatMulParams{1, 1, 1}) {
  const int64_t n = 128 + 64 * (seed % 2);  // vary shape across seeds
  TiledMatrix a{"A", TileLayout::Square(n, n, kTile)};
  TiledMatrix b{"B", TileLayout::Square(n, n, kTile)};
  TiledMatrix v{"V", TileLayout(1, n, 1, kTile)};
  TiledMatrix c{"C", TileLayout::Square(n, n, kTile)};
  TiledMatrix ew{"EW", TileLayout::Square(n, n, kTile)};
  TiledMatrix agg{"AGG", TileLayout(n, 1, kTile, 1)};
  TiledMatrix t{"T", TileLayout::Square(n, n, kTile)};
  Rng rng(seed);  // identical inputs for every budget
  CUMULON_RETURN_IF_ERROR(
      GenerateMatrix(a, FillKind::kGaussian, 0, &rng, store));
  CUMULON_RETURN_IF_ERROR(
      GenerateMatrix(b, FillKind::kGaussian, 0, &rng, store));
  CUMULON_RETURN_IF_ERROR(
      GenerateMatrix(v, FillKind::kGaussian, 0, &rng, store));

  store->EnablePrefetch(3);

  ClusterConfig cluster{MachineProfile{}, 4, 2};
  RealEngine engine(cluster, RealEngineOptions{});
  TileOpCostModel cost;
  ExecutorOptions exec_options;
  exec_options.job_startup_seconds = 0.0;
  exec_options.prefetch_budget_bytes = 2 * kTileMem;
  exec_options.memory_budget_bytes = budget_bytes;
  Executor executor(store, &engine, &cost, exec_options);

  PhysicalPlan plan;
  std::vector<EwStep> epilogue = {
      EwStep::Unary(UnaryOp::kScale, 0.5),
      EwStep::Binary(BinaryOp::kAdd, "V", false, EwStep::Operand::kRowVector)};
  CUMULON_RETURN_IF_ERROR(AddMatMul(a, b, c, mm_params, epilogue, &plan));
  CUMULON_RETURN_IF_ERROR(AddEwChain(
      c, ew, {EwStep::Unary(UnaryOp::kSigmoid),
              EwStep::Binary(BinaryOp::kMul, "A", false,
                             EwStep::Operand::kFull)},
      &plan, /*tiles_per_task=*/3));
  CUMULON_RETURN_IF_ERROR(AddAggregate(
      ew, agg, AggKind::kRowSums, {EwStep::Unary(UnaryOp::kScale, 1.0 / n)},
      &plan));
  CUMULON_RETURN_IF_ERROR(AddTranspose(ew, t, &plan, /*tiles_per_task=*/3));
  CUMULON_ASSIGN_OR_RETURN(*stats_out, executor.Run(plan));
  out->c = c;
  out->ew = ew;
  out->agg = agg;
  out->t = t;
  return Status::OK();
}

void ExpectBitIdentical(const TiledMatrix& m, DfsTileStore* baseline,
                        DfsTileStore* budgeted, int64_t budget) {
  const TileLayout& L = m.layout;
  for (int64_t gr = 0; gr < L.grid_rows(); ++gr) {
    for (int64_t gc = 0; gc < L.grid_cols(); ++gc) {
      auto a = baseline->Get(m.name, TileId{gr, gc}, -1);
      auto b = budgeted->Get(m.name, TileId{gr, gc}, -1);
      ASSERT_TRUE(a.ok()) << a.status();
      ASSERT_TRUE(b.ok()) << b.status();
      ASSERT_EQ((*a)->size(), (*b)->size());
      for (int64_t i = 0; i < (*a)->size(); ++i) {
        ASSERT_EQ((*a)->data()[i], (*b)->data()[i])
            << m.name << " tile (" << gr << "," << gc
            << ") differs at element " << i << " under budget " << budget;
      }
    }
  }
}

class StreamingFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamingFuzzTest, BudgetedRunsBitIdenticalToResidentBaseline) {
  const uint64_t seed = GetParam();
  SimDfs dfs_base(SlowDfs(0.001));
  DfsTileStore store_base(&dfs_base, /*verify_checksums=*/true);
  PipelineOutputs out_base;
  PlanStats stats_base;
  auto st = RunBudgetedPlan(0, seed, &store_base, &out_base, &stats_base);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(stats_base.spill_evictions, 0);
  EXPECT_EQ(stats_base.memory_peak_bytes, 0) << "unbudgeted: no ledger";

  // Tight (3 pinned tiles per slot — far below the matmul working set),
  // medium, and roomy budgets. 2 slots per machine, no tile cache, so a
  // budget of B gives each slot B/2 of pin room.
  const int64_t budgets[] = {6 * kTileMem, 16 * kTileMem, 1 << 22};
  for (int64_t budget : budgets) {
    SimDfs dfs(SlowDfs(0.001));
    DfsTileStore store(&dfs, /*verify_checksums=*/true);
    PipelineOutputs out;
    PlanStats stats;
    auto st_b = RunBudgetedPlan(budget, seed, &store, &out, &stats);
    ASSERT_TRUE(st_b.ok()) << st_b << " (budget " << budget << ")";

    ExpectBitIdentical(out_base.c, &store_base, &store, budget);
    ExpectBitIdentical(out_base.ew, &store_base, &store, budget);
    ExpectBitIdentical(out_base.agg, &store_base, &store, budget);
    ExpectBitIdentical(out_base.t, &store_base, &store, budget);

    // The ledger's hard cap held on every node.
    EXPECT_GT(stats.memory_peak_bytes, 0) << "budget " << budget;
    EXPECT_LE(stats.memory_peak_bytes, budget) << "budget " << budget;
  }

  // Re-fetch check. Tasks must revisit tiles for a re-fetch to exist at
  // all, so use 2x2 output blocks with a full-k fold (each A panel is
  // reused across the block's j range). The different fold order changes
  // the FP addition sequence, so this run gets its own unbudgeted
  // baseline.
  const MatMulParams blocked{2, 2, 0};
  SimDfs dfs_rbase(SlowDfs(0.001)), dfs_tight(SlowDfs(0.001));
  DfsTileStore store_rbase(&dfs_rbase, /*verify_checksums=*/true);
  DfsTileStore store_tight(&dfs_tight, /*verify_checksums=*/true);
  PipelineOutputs out_rbase, out_tight;
  PlanStats stats_rbase, stats_tight;
  auto st_rbase = RunBudgetedPlan(0, seed, &store_rbase, &out_rbase,
                                  &stats_rbase, blocked);
  ASSERT_TRUE(st_rbase.ok()) << st_rbase;
  auto st_tight = RunBudgetedPlan(6 * kTileMem, seed, &store_tight,
                                  &out_tight, &stats_tight, blocked);
  ASSERT_TRUE(st_tight.ok()) << st_tight;
  ExpectBitIdentical(out_rbase.c, &store_rbase, &store_tight, 6 * kTileMem);
  ExpectBitIdentical(out_rbase.ew, &store_rbase, &store_tight, 6 * kTileMem);
  ExpectBitIdentical(out_rbase.agg, &store_rbase, &store_tight,
                     6 * kTileMem);
  ExpectBitIdentical(out_rbase.t, &store_rbase, &store_tight, 6 * kTileMem);
  EXPECT_GT(stats_tight.spill_evictions, 0);
  EXPECT_GT(stats_tight.spill_evicted_bytes, 0);
  EXPECT_GT(stats_tight.spill_refetches, 0)
      << "split-k matmul re-reads evicted operand panels";
  EXPECT_EQ(stats_tight.metrics.counters.count("exec.spill.evictions"), 1u);
  EXPECT_EQ(stats_tight.metrics.counters.at("exec.spill.evictions"),
            stats_tight.spill_evictions);
  EXPECT_EQ(stats_tight.metrics.counters.at("exec.spill.refetch_bytes"),
            stats_tight.spill_refetch_bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingFuzzTest,
                         ::testing::Range<uint64_t>(1, 4));

TEST(StreamingExecutorTest, BudgetBelowCacheReserveIsInvalidArgument) {
  InMemoryTileStore store;
  ClusterConfig cluster{MachineProfile{}, 2, 2};
  RealEngineOptions engine_options;
  engine_options.enable_tile_cache = true;
  engine_options.cache_bytes_per_node = 1 << 20;
  RealEngine engine(cluster, engine_options);
  TileOpCostModel cost;
  ExecutorOptions exec_options;
  exec_options.memory_budget_bytes = 1 << 20;  // == cache reservation
  Executor executor(&store, &engine, &cost, exec_options);
  PhysicalPlan plan;
  auto result = executor.Run(plan);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(StreamingExecutorTest, BudgetAboveCacheReserveRuns) {
  InMemoryTileStore store;
  ClusterConfig cluster{MachineProfile{}, 2, 2};
  RealEngineOptions engine_options;
  engine_options.enable_tile_cache = true;
  engine_options.cache_bytes_per_node = 1 << 16;
  RealEngine engine(cluster, engine_options);
  TileOpCostModel cost;
  ExecutorOptions exec_options;
  exec_options.memory_budget_bytes = 1 << 20;
  Executor executor(&store, &engine, &cost, exec_options);
  PhysicalPlan plan;  // empty plan: the budget checks still run
  auto result = executor.Run(plan);
  ASSERT_TRUE(result.ok()) << result.status();
  // The cache's standing reservation is the ledger floor.
  EXPECT_GE(result.value().memory_peak_bytes, 1 << 16);
  EXPECT_LE(result.value().memory_peak_bytes, 1 << 20);
}

// ---------------------------------------------------------------------------
// Panel-partial aggregates: the streamed aggregate's building blocks.
// ---------------------------------------------------------------------------

Tile GaussianTile(int64_t rows, int64_t cols, uint64_t seed) {
  Tile t(rows, cols);
  Rng rng(seed);
  FillGaussian(&t, &rng);
  return t;
}

TEST(AggPanelTest, OnePanelMatchesFlatFold) {
  // Up to kAggPanelTiles tiles form a single panel; its partial combined
  // into a zero accumulator must be bit-equal to the flat per-tile fold
  // (so small matrices see no change from panel streaming).
  std::vector<Tile> tiles;
  for (int i = 0; i < static_cast<int>(kAggPanelTiles); ++i) {
    tiles.push_back(GaussianTile(16, 16, 100 + i));
  }
  Tile flat(16, 1), panel(16, 1), partial(16, 1);
  FillTile(&flat, 0.0);
  FillTile(&panel, 0.0);
  FillTile(&partial, 0.0);
  for (const Tile& t : tiles) {
    ASSERT_TRUE(RowSumsInto(t, &flat).ok());
    ASSERT_TRUE(RowSumsPartialInto(t, &partial).ok());
  }
  ASSERT_TRUE(CombineAggPartial(partial, &panel).ok());
  for (int64_t r = 0; r < 16; ++r) {
    ASSERT_EQ(panel.At(r, 0), flat.At(r, 0)) << "row " << r;
  }
}

TEST(AggPanelTest, PanelDecompositionIsDeterministicAndCorrect) {
  // 20 tiles = 3 panels of the fixed width. The decomposition must be
  // reproducible run to run (bit-identity across budgets relies on the
  // panel width being a constant) and sum-correct within tolerance.
  const int kTiles = 20;
  auto run = [&] {
    Tile acc(8, 1);
    FillTile(&acc, 0.0);
    for (int x0 = 0; x0 < kTiles;
         x0 += static_cast<int>(kAggPanelTiles)) {
      Tile partial(8, 1);
      FillTile(&partial, 0.0);
      const int x1 =
          std::min(x0 + static_cast<int>(kAggPanelTiles), kTiles);
      for (int x = x0; x < x1; ++x) {
        const Tile t = GaussianTile(8, 8, 500 + x);
        EXPECT_TRUE(RowSumsPartialInto(t, &partial).ok());
      }
      EXPECT_TRUE(CombineAggPartial(partial, &acc).ok());
    }
    return acc;
  };
  const Tile first = run();
  const Tile second = run();
  double naive0 = 0.0;
  for (int x = 0; x < kTiles; ++x) {
    const Tile t = GaussianTile(8, 8, 500 + x);
    for (int64_t c = 0; c < 8; ++c) naive0 += t.At(0, c);
  }
  for (int64_t r = 0; r < 8; ++r) {
    ASSERT_EQ(first.At(r, 0), second.At(r, 0)) << "row " << r;
  }
  EXPECT_NEAR(first.At(0, 0), naive0, 1e-9 * (1.0 + std::abs(naive0)));
}

}  // namespace
}  // namespace cumulon
