// A multiply whose op(B) spans one tile column is lowered with bi = 0:
// MatMulJob::Build groups up to RowPanelJob::kPanelsPerTask row panels of
// op(A) per task, so they share one read of B, whenever the grouping adds
// no row-panel work to any of the cluster's slots. These tests pin the
// rule's task counts, the gated plans' task counts on 2 x 2 slots, and
// that the grouping leaves every output bit unchanged in real mode, with
// and without prefetch and under a spilling memory budget.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/real_engine.h"
#include "common/rng.h"
#include "common/strings.h"
#include "cost/cost_model.h"
#include "dfs/dfs_tile_store.h"
#include "dfs/sim_dfs.h"
#include "exec/executor.h"
#include "exec/physical_job.h"
#include "exec/physical_plan.h"
#include "lang/logical_optimizer.h"
#include "lang/lowering.h"
#include "lang/programs.h"
#include "matrix/tiled_matrix.h"

namespace cumulon {
namespace {

/// C = 0.5 * (A * B) + y over A with `gi` row panels of 3 tiles, a
/// one-tile-column B (ragged: 5 columns) and a column vector y.
struct NarrowMultiply {
  NarrowMultiply(int64_t gi, int64_t tile)
      : a{"A", TileLayout::Square(gi * tile, 3 * tile, tile)},
        b{"B", TileLayout::Square(3 * tile, 5, tile)},
        y{"y", TileLayout::Square(gi * tile, 1, tile)},
        c{"C", TileLayout::Square(gi * tile, 5, tile)} {}

  std::vector<EwStep> Epilogue() const {
    return {EwStep::Unary(UnaryOp::kScale, 0.5),
            EwStep::Binary(BinaryOp::kAdd, y.name, false,
                           EwStep::Operand::kColVector)};
  }

  /// Tasks Build makes with `params` on `total_slots` slots.
  size_t Tasks(const MatMulParams& params, int total_slots) const {
    const MatMulJob job("mm", a, b, c, params, Epilogue());
    TileOpCostModel cost;
    BuildContext ctx;
    ctx.cost = &cost;
    ctx.attach_work = false;
    ctx.total_slots = total_slots;
    auto built = job.Build(ctx);
    CUMULON_CHECK(built.ok()) << built.status();
    return built->spec.tasks.size();
  }

  TiledMatrix a, b, y, c;
};

TEST(MatMulRowGroupTest, TaskCountFollowsTheSlots) {
  struct Case {
    int64_t gi;
    int slots;
    size_t tasks;
  };
  for (const Case& c : std::vector<Case>{{8, 4, 4},
                                         {16, 4, 8},
                                         {7, 4, 4},
                                         {10, 4, 10},
                                         {12, 4, 12},
                                         {24, 4, 12},
                                         {8, 16, 8},
                                         {64, 32, 32},
                                         {64, 64, 64},
                                         {1, 4, 1},
                                         {8, 0, 8},
                                         {7, 0, 7}}) {
    SCOPED_TRACE(StrCat("gi=", c.gi, " slots=", c.slots));
    const NarrowMultiply mm(c.gi, 8);
    EXPECT_EQ(mm.Tasks(MatMulParams{0, 1, 0}, c.slots), c.tasks);
    // An explicit split is used as given: one row panel per task.
    EXPECT_EQ(mm.Tasks(MatMulParams{1, 1, 0}, c.slots),
              static_cast<size_t>(c.gi));
  }
}

TEST(MatMulRowGroupTest, GroupingAddsNoRowPanelWorkToAnySlot) {
  auto ceil_div = [](int64_t n, int64_t d) { return (n + d - 1) / d; };
  for (int64_t gi = 1; gi <= 70; ++gi) {
    for (int slots = 0; slots <= 20; ++slots) {
      SCOPED_TRACE(StrCat("gi=", gi, " slots=", slots));
      const int64_t b = MatMulJob::RowPanelsPerTask(gi, slots);
      ASSERT_GE(b, 1);
      ASSERT_LE(b, RowPanelJob::kPanelsPerTask);
      if (slots == 0) {
        EXPECT_EQ(b, 1);
        continue;
      }
      // The busiest slot's panels: b per task, one more task than the
      // others at most.
      const int64_t per_slot = ceil_div(gi, slots);
      EXPECT_LE(b * ceil_div(ceil_div(gi, b), slots), per_slot);
      // And b is the largest group that keeps that bound.
      for (int64_t larger = b + 1; larger <= RowPanelJob::kPanelsPerTask;
           ++larger) {
        EXPECT_GT(larger * ceil_div(ceil_div(gi, larger), slots), per_slot);
      }
    }
  }
}

/// Tasks of `program`'s plan, lowered with default options over `inputs`
/// at `tile` and built for `total_slots` slots.
size_t PlanTasks(const Program& program,
                 const std::map<std::string, TileLayout>& inputs,
                 int64_t tile, int total_slots) {
  std::map<std::string, TiledMatrix> bindings;
  for (const auto& [name, layout] : inputs) {
    bindings.emplace(name, TiledMatrix{name, layout});
  }
  LoweringOptions lowering;
  lowering.tile_dim = tile;
  auto lowered = Lower(OptimizeProgram(program), bindings, lowering);
  CUMULON_CHECK(lowered.ok()) << lowered.status();
  TileOpCostModel cost;
  BuildContext ctx;
  ctx.cost = &cost;
  ctx.attach_work = false;
  ctx.total_slots = total_slots;
  size_t tasks = 0;
  for (const auto& job : lowered->plan.jobs) {
    auto built = job->Build(ctx);
    CUMULON_CHECK(built.ok()) << built.status();
    tasks += built->spec.tasks.size();
  }
  return tasks;
}

TEST(MatMulRowGroupTest, GatedShapesOnTwoByTwoSlots) {
  // rsvd-io: A is 4096 x 4096 and Omega 4096 x 64 in 512-tiles. Y = A Z
  // goes from 8 tasks to 4; the row-panel job's 4 and the sum's 8 stay.
  RsvdSpec rsvd;
  rsvd.m = 4096;
  rsvd.n = 4096;
  rsvd.l = 64;
  const std::map<std::string, TileLayout> rsvd_inputs = {
      {"A", TileLayout::Square(4096, 4096, 512)},
      {"Omega", TileLayout::Square(4096, 64, 512)}};
  EXPECT_EQ(PlanTasks(BuildRsvd1(rsvd), rsvd_inputs, 512, 0), 20u);
  EXPECT_EQ(PlanTasks(BuildRsvd1(rsvd), rsvd_inputs, 512, 4), 16u);

  // gnmf-io: V is 4096 x 2048 over rank 32 in 256-tiles. W = V H^T ...
  // goes from 16 tasks to 8; the H update's 8 and the two Gram products'
  // one each stay.
  GnmfSpec gnmf;
  gnmf.m = 4096;
  gnmf.n = 2048;
  gnmf.k = 32;
  const std::map<std::string, TileLayout> gnmf_inputs = {
      {"V", TileLayout::Square(4096, 2048, 256)},
      {"W", TileLayout::Square(4096, 32, 256)},
      {"H", TileLayout::Square(32, 2048, 256)}};
  EXPECT_EQ(PlanTasks(BuildGnmfIteration(gnmf), gnmf_inputs, 256, 0), 26u);
  EXPECT_EQ(PlanTasks(BuildGnmfIteration(gnmf), gnmf_inputs, 256, 4), 18u);
}

/// One real run of the narrow multiply on 2 machines x 2 slots over a
/// fresh DFS: C's tiles by grid position, and the run's stats.
struct RealRun {
  std::map<TileId, std::vector<double>> tiles;
  PlanStats stats;
};

RealRun RunNarrow(const MatMulParams& params, int64_t prefetch_bytes,
                  int64_t budget_bytes) {
  constexpr int64_t kTile = 32;
  const NarrowMultiply mm(/*gi=*/8, kTile);
  SimDfs dfs(DfsOptions{});
  DfsTileStore store(&dfs);
  store.EnablePrefetch(2);
  Rng rng(5);  // identical inputs for every run
  for (const TiledMatrix* m : {&mm.a, &mm.b, &mm.y}) {
    CUMULON_CHECK(
        GenerateMatrix(*m, FillKind::kGaussian, 0.0, &rng, &store).ok());
  }
  RealEngine engine(ClusterConfig{MachineProfile{}, 2, 2},
                    RealEngineOptions{});
  TileOpCostModel cost;
  ExecutorOptions options;
  options.job_startup_seconds = 0.0;
  options.prefetch_budget_bytes = prefetch_bytes;
  options.memory_budget_bytes = budget_bytes;
  Executor executor(&store, &engine, &cost, options);
  PhysicalPlan plan;
  CUMULON_CHECK(AddMatMul(mm.a, mm.b, mm.c, params, mm.Epilogue(), &plan)
                    .ok());
  auto stats = executor.Run(plan);
  CUMULON_CHECK(stats.ok()) << stats.status();
  RealRun run;
  run.stats = *std::move(stats);
  for (int64_t gr = 0; gr < mm.c.layout.grid_rows(); ++gr) {
    auto tile = store.Get(mm.c.name, TileId{gr, 0}, -1);
    CUMULON_CHECK(tile.ok()) << tile.status();
    run.tiles[TileId{gr, 0}].assign((*tile)->data(),
                                    (*tile)->data() + (*tile)->size());
  }
  return run;
}

TEST(MatMulRowGroupBitsTest, GroupedTasksGiveTheBitsOfOnePanelPerTask) {
  // 8 row panels on 4 slots: two panels per task, 4 tasks against 8. The
  // budget leaves each slot room for about two A tiles, well below a
  // grouped task's 6 A tiles and 3 B tiles, so panels spill and stream
  // back in.
  constexpr int64_t kTileMem = 32 * 32 * 8;
  struct Config {
    const char* name;
    int64_t prefetch_bytes;
    int64_t budget_bytes;
  };
  const RealRun reference = RunNarrow(MatMulParams{1, 1, 0}, 0, 0);
  EXPECT_EQ(reference.stats.total_tasks, 8);
  for (const Config& config :
       std::vector<Config>{{"no prefetch", 0, 0},
                           {"64 MiB window", int64_t{64} << 20, 0},
                           {"spilling budget", int64_t{64} << 20,
                            2 * 2 * kTileMem}}) {
    SCOPED_TRACE(config.name);
    const RealRun grouped = RunNarrow(MatMulParams{0, 1, 0},
                                      config.prefetch_bytes,
                                      config.budget_bytes);
    const RealRun single = RunNarrow(MatMulParams{1, 1, 0},
                                     config.prefetch_bytes,
                                     config.budget_bytes);
    EXPECT_EQ(grouped.stats.total_tasks, 4);
    EXPECT_EQ(single.stats.total_tasks, 8);
    if (config.budget_bytes > 0) {
      EXPECT_GT(grouped.stats.spill_evictions, 0) << "budget never spilled";
    }
    EXPECT_EQ(grouped.tiles, reference.tiles);
    EXPECT_EQ(single.tiles, reference.tiles);
  }
}

}  // namespace
}  // namespace cumulon
