// A product whose inner dimension lies within one tile is computed inside
// the element-wise step that consumes it: GNMF's (W^T W) H and W (H H^T)
// are product steps of the H and W updates, not jobs. These tests pin
// where lowering applies the rule and where it must not, and check that
// the fused GNMF computes exactly the bits of the same iteration with
// every product assigned explicitly, in both kernel modes, with blocking
// reads, a prefetch window, a spilling memory budget, split-k multiplies
// and a ragged tile grid.

#include <cstdint>
#include <cstring>
#include <map>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/real_engine.h"
#include "common/logging.h"
#include "common/rng.h"
#include "cost/cost_model.h"
#include "dfs/dfs_tile_store.h"
#include "dfs/sim_dfs.h"
#include "exec/executor.h"
#include "exec/physical_job.h"
#include "lang/logical_optimizer.h"
#include "lang/lowering.h"
#include "lang/programs.h"
#include "matrix/dense_matrix.h"
#include "matrix/tiled_matrix.h"

namespace cumulon {
namespace {

constexpr int64_t kTile = 8;

Program FusedGnmf(const GnmfSpec& spec) {
  return OptimizeProgram(BuildGnmfIteration(spec));
}

/// The same iteration with both denominators and their inner products
/// assigned: every product is a matrix of its own.
Program ExplicitGnmf(const GnmfSpec& spec) {
  auto v = Expr::Input("V", spec.m, spec.n);
  auto w = Expr::Input("W", spec.m, spec.k);
  auto h = Expr::Input("H", spec.k, spec.n);
  Program p;
  p.Assign("G", T(w) * w);
  p.Assign("D", Expr::Input("G", spec.k, spec.k) * h);
  p.Assign("H", EMul(h, EDiv(T(w) * v, Expr::Input("D", spec.k, spec.n))));
  auto h_new = Expr::Input("H", spec.k, spec.n);
  p.Assign("Q", h_new * T(h_new));
  p.Assign("E", w * Expr::Input("Q", spec.k, spec.k));
  p.Assign("W", EMul(w, EDiv(v * T(h_new), Expr::Input("E", spec.m, spec.k))));
  return p;
}

std::map<std::string, TiledMatrix> GnmfBindings(const GnmfSpec& spec,
                                                int64_t tile) {
  return {{"V", TiledMatrix{"V", TileLayout::Square(spec.m, spec.n, tile)}},
          {"W", TiledMatrix{"W", TileLayout::Square(spec.m, spec.k, tile)}},
          {"H", TiledMatrix{"H", TileLayout::Square(spec.k, spec.n, tile)}}};
}

GnmfSpec Spec(int64_t m, int64_t n, int64_t k) {
  GnmfSpec spec;
  spec.m = m;
  spec.n = n;
  spec.k = k;
  return spec;
}

LoweredProgram LowerOrDie(const Program& program,
                          const std::map<std::string, TiledMatrix>& bindings,
                          LoweringOptions lowering = LoweringOptions{}) {
  lowering.tile_dim = kTile;
  auto lowered = Lower(program, bindings, lowering);
  CUMULON_CHECK(lowered.ok()) << lowered.status();
  return std::move(lowered).value();
}

/// Product steps across the plan's job descriptions: a step prints its
/// operand as `L*R`, a multiply job as `A * B`.
int CountProductSteps(const PhysicalPlan& plan) {
  int count = 0;
  for (const auto& job : plan.jobs) {
    const std::string line = job->DebugString();
    for (size_t at = line.find('*'); at != std::string::npos;
         at = line.find('*', at + 1)) {
      if (line[at - 1] != ' ' && line[at + 1] != ' ') ++count;
    }
  }
  return count;
}

// ---------------------------------------------------------------------------
// Plan shapes
// ---------------------------------------------------------------------------

TEST(ProductStepPlanTest, GnmfProductsAreStepsNotTemporaries) {
  // RowPanelPlanTest.GnmfPlanIsUnchanged pins the plan's text; here, the
  // two products are steps and neither is a matrix the plan must drop.
  const GnmfSpec spec = Spec(24, 16, 8);
  const LoweredProgram lowered =
      LowerOrDie(FusedGnmf(spec), GnmfBindings(spec, kTile));
  EXPECT_EQ(lowered.plan.jobs.size(), 4u) << lowered.plan.DebugString();
  EXPECT_EQ(CountProductSteps(lowered.plan), 2) << lowered.plan.DebugString();
  EXPECT_EQ(lowered.plan.temporaries,
            (std::vector<std::string>{"tmp_0", "tmp_1"}));
}

TEST(ProductStepPlanTest, GnmfIoShapeRunsTwentySixTasks) {
  // The gated GNMF shape: 4096 x 2048 over rank 32 in 256-tiles. W^T W and
  // H H^T are one task each, the H update one per tile column of V, the W
  // update one per tile row.
  const GnmfSpec spec = Spec(4096, 2048, 32);
  LoweringOptions lowering;
  auto lowered = Lower(FusedGnmf(spec), GnmfBindings(spec, 256), lowering);
  ASSERT_TRUE(lowered.ok()) << lowered.status();
  ASSERT_EQ(lowered->plan.jobs.size(), 4u) << lowered->plan.DebugString();
  TileOpCostModel cost;
  BuildContext ctx;
  ctx.cost = &cost;
  ctx.attach_work = false;
  size_t tasks = 0;
  for (const auto& job : lowered->plan.jobs) {
    auto built = job->Build(ctx);
    ASSERT_TRUE(built.ok()) << built.status();
    tasks += built->spec.tasks.size();
  }
  EXPECT_EQ(tasks, 26u);
}

TEST(ProductStepPlanTest, InnerDimensionOverTwoTilesStaysAJob) {
  // k = 16 spans two 8-tiles: W^T W is still one tile, but W (H H^T) has
  // two k tiles and (W^T W) H reads two rows of tiles of H.
  const GnmfSpec spec = Spec(24, 16, 16);
  const LoweredProgram lowered =
      LowerOrDie(FusedGnmf(spec), GnmfBindings(spec, kTile));
  EXPECT_EQ(lowered.plan.jobs.size(), 6u) << lowered.plan.DebugString();
  EXPECT_EQ(CountProductSteps(lowered.plan), 0) << lowered.plan.DebugString();
}

/// Y = (A * B) ./ (L * R) over 24 x 16 in 8-tiles, L * R with inner
/// dimension 4 and the given factors.
Program DivideByProduct(const ExprPtr& l, const ExprPtr& r) {
  Program p;
  p.Assign("Y", EDiv(Expr::Input("A", 24, 8) * Expr::Input("B", 8, 16),
                     l * r));
  return p;
}

std::map<std::string, TiledMatrix> ProductBindings() {
  std::map<std::string, TiledMatrix> bindings;
  for (const auto& [name, rows, cols] :
       std::vector<std::tuple<std::string, int64_t, int64_t>>{
           {"A", 24, 8}, {"B", 8, 16}, {"L", 24, 4}, {"R", 4, 16},
           {"Lt", 4, 24}, {"Rt", 16, 4}}) {
    bindings.emplace(name, TiledMatrix{name, TileLayout::Square(rows, cols,
                                                                 kTile)});
  }
  return bindings;
}

TEST(ProductStepPlanTest, PlainFactorsBecomeAStep) {
  const LoweredProgram lowered = LowerOrDie(
      DivideByProduct(Expr::Input("L", 24, 4), Expr::Input("R", 4, 16)),
      ProductBindings());
  EXPECT_EQ(lowered.plan.DebugString(),
            "MatMul[mm_Y] Y = A * B (bi=1,bj=1,bk=-1) epi{div(v, L*R)}\n");
}

TEST(ProductStepPlanTest, TransposedFactorStaysAJob) {
  for (const Program& program :
       {DivideByProduct(T(Expr::Input("Lt", 4, 24)), Expr::Input("R", 4, 16)),
        DivideByProduct(Expr::Input("L", 24, 4),
                        T(Expr::Input("Rt", 16, 4)))}) {
    const LoweredProgram lowered = LowerOrDie(program, ProductBindings());
    EXPECT_EQ(lowered.plan.jobs.size(), 2u) << lowered.plan.DebugString();
    EXPECT_EQ(CountProductSteps(lowered.plan), 0)
        << lowered.plan.DebugString();
  }
}

TEST(ProductStepPlanTest, CseHitReadsTheMaterializedProduct) {
  // Z's multiply lowers L * R as a value first, so Y's step finds it in
  // the CSE table and reads that matrix. C is one tile column, so Z's
  // multiply leaves its row groups to the build (bi=0).
  auto l = Expr::Input("L", 24, 4);
  auto r = Expr::Input("R", 4, 16);
  Program p;
  p.Assign("Z", (l * r) * Expr::Input("C", 16, 8));
  p.Assign("Y", EDiv(Expr::Input("A", 24, 8) * Expr::Input("B", 8, 16),
                     l * r));
  std::map<std::string, TiledMatrix> bindings = ProductBindings();
  bindings.emplace("C", TiledMatrix{"C", TileLayout::Square(16, 8, kTile)});
  const LoweredProgram lowered = LowerOrDie(p, bindings);
  EXPECT_EQ(lowered.plan.DebugString(),
            "MatMul[mm_tmp_0] tmp_0 = L * R (bi=1,bj=1,bk=-1)\n"
            "MatMul[mm_Z] Z = tmp_0 * C (bi=0,bj=1,bk=-1)\n"
            "MatMul[mm_Y] Y = A * B (bi=1,bj=1,bk=-1) epi{div(v, tmp_0)}\n");
}

TEST(ProductStepPlanTest, ExplicitAssignmentStaysAJob) {
  const GnmfSpec spec = Spec(24, 16, 8);
  const LoweredProgram lowered =
      LowerOrDie(ExplicitGnmf(spec), GnmfBindings(spec, kTile));
  EXPECT_EQ(lowered.plan.jobs.size(), 6u) << lowered.plan.DebugString();
  EXPECT_EQ(CountProductSteps(lowered.plan), 0) << lowered.plan.DebugString();
}

TEST(ProductStepPlanTest, InnerDimensionOverAProductTileStaysAJob) {
  // L and R meet on one tile (L is 24 x 12 in 8 x 16 tiles, R 12 x 16 in
  // 16 x 8 tiles), but k = 12 exceeds the 8 x 8 tiles of L * R, so a
  // factor tile would outgrow the product tile it replaces.
  std::map<std::string, TiledMatrix> bindings = ProductBindings();
  bindings.insert_or_assign("L", TiledMatrix{"L", TileLayout(24, 12, 8, 16)});
  bindings.insert_or_assign("R", TiledMatrix{"R", TileLayout(12, 16, 16, 8)});
  const LoweredProgram lowered = LowerOrDie(
      DivideByProduct(Expr::Input("L", 24, 12), Expr::Input("R", 12, 16)),
      bindings);
  EXPECT_EQ(lowered.plan.DebugString(),
            "MatMul[mm_tmp_0] tmp_0 = L * R (bi=1,bj=1,bk=-1)\n"
            "MatMul[mm_Y] Y = A * B (bi=1,bj=1,bk=-1) epi{div(v, tmp_0)}\n");
}

TEST(ProductStepPlanTest, FusionOffKeepsTenJobs) {
  // Ablation A1's one-job-per-operator GNMF: per update a transpose,
  // three multiplies (the product included) and one element-wise pass.
  const GnmfSpec spec = Spec(24, 16, 8);
  LoweringOptions lowering;
  lowering.enable_fusion = false;
  const LoweredProgram lowered =
      LowerOrDie(FusedGnmf(spec), GnmfBindings(spec, kTile), lowering);
  EXPECT_EQ(lowered.plan.jobs.size(), 10u) << lowered.plan.DebugString();
  EXPECT_EQ(CountProductSteps(lowered.plan), 0) << lowered.plan.DebugString();
}

TEST(ProductStepPlanTest, StepNamesBothFactors) {
  EXPECT_EQ(EwStep::Product(BinaryOp::kDiv, "W", "S", 4).ToString(),
            "div(v, W*S)");
  EXPECT_EQ(EwStep::Product(BinaryOp::kSub, "W", "S", 4, true).ToString(),
            "sub(W*S, v)");
}

// ---------------------------------------------------------------------------
// Bits: fused GNMF vs the explicit-assignment program
// ---------------------------------------------------------------------------

/// One execution setting both programs run under.
struct RunConfig {
  const char* name;
  KernelMode kernel = KernelMode::kAuto;
  int64_t prefetch_bytes = 0;
  int64_t memory_budget_bytes = 0;
  bool split_k = false;
  bool ragged = false;  // matrix dims that are not multiples of the tile
};

// Without this gtest prints a RunConfig as its raw bytes, `name`'s address
// among them, so the listed test names would change from process to process.
void PrintTo(const RunConfig& config, std::ostream* os) { *os << config.name; }

struct RunOutput {
  PlanStats stats;
  size_t jobs = 0;
  std::map<std::string, DenseMatrix> outputs;
};

/// Stores uniform inputs (GNMF's divisions stay finite) in a fresh DFS,
/// lowers and runs `program` on the real engine (2 machines x 2 slots),
/// and loads H and W back.
RunOutput Execute(const Program& program, const GnmfSpec& spec,
                  const RunConfig& config) {
  SimDfs dfs(DfsOptions{});
  DfsTileStore store(&dfs);
  if (config.prefetch_bytes > 0) store.EnablePrefetch(2);
  const std::map<std::string, TiledMatrix> bindings =
      GnmfBindings(spec, kTile);
  Rng rng(7);  // identical inputs for both programs
  for (const char* name : {"V", "W", "H"}) {
    CUMULON_CHECK(GenerateMatrix(bindings.at(name), FillKind::kUniform, 0.0,
                                 &rng, &store)
                      .ok());
  }
  LoweringOptions lowering;
  if (config.split_k) {
    lowering.mm_params = [](const TileLayout&, const TileLayout&) {
      return MatMulParams{2, 2, 1};
    };
  }
  const LoweredProgram lowered = LowerOrDie(program, bindings, lowering);

  RealEngine engine(ClusterConfig{MachineProfile{}, 2, 2},
                    RealEngineOptions{});
  TileOpCostModel cost;
  ExecutorOptions options;
  options.job_startup_seconds = 0.0;
  options.kernel_mode = config.kernel;
  options.prefetch_budget_bytes = config.prefetch_bytes;
  options.memory_budget_bytes = config.memory_budget_bytes;
  Executor executor(&store, &engine, &cost, options);
  auto stats = executor.Run(lowered.plan);
  CUMULON_CHECK(stats.ok()) << stats.status();

  RunOutput out{std::move(stats).value(), lowered.plan.jobs.size(), {}};
  for (const char* target : {"H", "W"}) {
    auto dense = LoadDense(lowered.outputs.at(target), &store);
    CUMULON_CHECK(dense.ok()) << dense.status();
    out.outputs.emplace(target, std::move(dense).value());
  }
  return out;
}

void ExpectSameBits(const DenseMatrix& a, const DenseMatrix& b,
                    const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t c = 0; c < a.cols(); ++c) {
      const double x = a.At(r, c);
      const double y = b.At(r, c);
      ASSERT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
          << what << " differs at (" << r << "," << c << "): " << x
          << " vs " << y;
    }
  }
}

class ProductStepBitsTest : public ::testing::TestWithParam<RunConfig> {};

TEST_P(ProductStepBitsTest, FusedGnmfMatchesExplicitProducts) {
  const RunConfig& config = GetParam();
  const GnmfSpec spec = config.ragged ? Spec(37, 29, 5) : Spec(32, 24, 8);
  const RunOutput fused = Execute(FusedGnmf(spec), spec, config);
  const RunOutput explicit_products = Execute(ExplicitGnmf(spec), spec, config);
  // Split-k adds one merging job per multiply that folds more than one
  // k tile; either way the fused plan drops the two product jobs.
  EXPECT_EQ(fused.jobs + 2, explicit_products.jobs);
  if (config.memory_budget_bytes > 0) {
    EXPECT_GT(fused.stats.spill_evictions, 0) << "the budget must bite";
  }
  for (const char* target : {"H", "W"}) {
    ExpectSameBits(fused.outputs.at(target),
                   explicit_products.outputs.at(target), target);
  }
}

// Three tiles of window, so the prefetches cycle within a task.
constexpr int64_t kWindow = 3 * (16 + kTile * kTile * 8);
// Four tiles per node leave each of a node's 2 slots two pinned tiles:
// factor and operand panels spill and stream back in.
constexpr int64_t kTightBudget = 4 * kTile * kTile * 8;

INSTANTIATE_TEST_SUITE_P(
    Configs, ProductStepBitsTest,
    ::testing::Values(
        RunConfig{"scalar", KernelMode::kScalar},
        RunConfig{"simd", KernelMode::kAuto},
        RunConfig{"scalar_prefetch", KernelMode::kScalar, kWindow},
        RunConfig{"simd_prefetch", KernelMode::kAuto, kWindow},
        RunConfig{"scalar_budget", KernelMode::kScalar, 0, kTightBudget},
        RunConfig{"simd_budget", KernelMode::kAuto, 0, kTightBudget},
        RunConfig{"scalar_split_k", KernelMode::kScalar, 0, 0, true},
        RunConfig{"simd_split_k", KernelMode::kAuto, 0, 0, true},
        RunConfig{"scalar_ragged", KernelMode::kScalar, 0, 0, false, true},
        RunConfig{"simd_ragged", KernelMode::kAuto, 0, 0, false, true}),
    [](const ::testing::TestParamInfo<RunConfig>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace cumulon
