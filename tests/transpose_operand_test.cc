// Multiplies read transposed operands in place. A program lowered with
// T(X) under a multiply (the operand is marked transposed, no transpose
// job) must compute exactly the bits of the same program with the
// transpose materialized by an explicit `Xt = T(X)` assignment — for
// RSVD-1, a GNMF iteration and a linreg step, in both kernel modes, under
// a memory budget, with split-k multiplies, and on a ragged tile grid.

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/real_engine.h"
#include "common/rng.h"
#include "cost/cost_model.h"
#include "exec/executor.h"
#include "lang/logical_optimizer.h"
#include "lang/lowering.h"
#include "lang/programs.h"
#include "matrix/tiled_matrix.h"

namespace cumulon {
namespace {

constexpr int64_t kTile = 8;

/// One execution setting both plans of a pair run under.
struct RunConfig {
  const char* name;
  KernelMode kernel = KernelMode::kAuto;
  int64_t memory_budget_bytes = 0;
  bool split_k = false;
  bool ragged = false;  // matrix dims that are not multiples of the tile
};

// Without this gtest prints a RunConfig as its raw bytes, `name`'s address
// among them, so the listed test names would change from process to process.
void PrintTo(const RunConfig& config, std::ostream* os) { *os << config.name; }

/// A program written two ways over the same inputs.
struct ProgramPair {
  Program in_place;      // T(X) feeds multiplies directly
  Program materialized;  // Xt = T(X) is assigned, the multiplies read Xt
  std::vector<TiledMatrix> inputs;
  std::vector<std::string> outputs;  // targets whose bits must agree
};

TiledMatrix Input(const std::string& name, int64_t rows, int64_t cols) {
  return TiledMatrix{name, TileLayout::Square(rows, cols, kTile)};
}

ProgramPair Rsvd1(bool ragged) {
  RsvdSpec spec;
  spec.m = ragged ? 27 : 32;
  spec.n = ragged ? 19 : 24;
  spec.l = ragged ? 5 : 8;
  auto a = Expr::Input("A", spec.m, spec.n);
  auto omega = Expr::Input("Omega", spec.n, spec.l);
  Program materialized;
  materialized.Assign("At", T(a));
  materialized.Assign("Y", a * Expr::Input("At", spec.n, spec.m) * a * omega);
  return {OptimizeProgram(BuildRsvd1(spec)), OptimizeProgram(materialized),
          {Input("A", spec.m, spec.n), Input("Omega", spec.n, spec.l)},
          {"Y"}};
}

ProgramPair GnmfIteration(bool ragged) {
  GnmfSpec spec;
  spec.m = ragged ? 21 : 24;
  spec.n = ragged ? 13 : 16;
  spec.k = ragged ? 5 : 8;
  auto v = Expr::Input("V", spec.m, spec.n);
  auto w = Expr::Input("W", spec.m, spec.k);
  auto h = Expr::Input("H", spec.k, spec.n);
  auto wt = Expr::Input("Wt", spec.k, spec.m);
  Program materialized;
  materialized.Assign("Wt", T(w));
  materialized.Assign("H", EMul(h, EDiv(wt * v, wt * w * h)));
  auto h_new = Expr::Input("H", spec.k, spec.n);
  auto ht = Expr::Input("Ht", spec.n, spec.k);
  materialized.Assign("Ht", T(h_new));
  materialized.Assign("W", EMul(w, EDiv(v * ht, w * h_new * ht)));
  return {OptimizeProgram(BuildGnmfIteration(spec)),
          OptimizeProgram(materialized),
          {Input("V", spec.m, spec.n), Input("W", spec.m, spec.k),
           Input("H", spec.k, spec.n)},
          {"H", "W"}};
}

ProgramPair LinRegStep(bool ragged) {
  LinRegSpec spec;
  spec.samples = ragged ? 29 : 32;
  spec.features = ragged ? 11 : 16;
  auto x = Expr::Input("X", spec.samples, spec.features);
  auto w = Expr::Input("w", spec.features, 1);
  auto y = Expr::Input("y", spec.samples, 1);
  Program materialized;
  materialized.Assign("Xt", T(x));
  materialized.Assign(
      "w", w - Scale(Expr::Input("Xt", spec.features, spec.samples) *
                         (x * w - y),
                     spec.alpha));
  return {OptimizeProgram(BuildLinRegStep(spec)),
          OptimizeProgram(materialized),
          {Input("X", spec.samples, spec.features),
           Input("w", spec.features, 1), Input("y", spec.samples, 1)},
          {"w"}};
}

int CountTransposeJobs(const PhysicalPlan& plan) {
  int transposes = 0;
  for (const auto& job : plan.jobs) {
    if (dynamic_cast<const TransposeJob*>(job.get()) != nullptr) {
      ++transposes;
    }
  }
  return transposes;
}

/// Generates the inputs into `store` (uniform, so GNMF's divisions stay
/// finite), lowers `program` and runs it on the real engine.
void LowerAndRun(const Program& program, const std::vector<TiledMatrix>& inputs,
                 const RunConfig& config, InMemoryTileStore* store,
                 LoweredProgram* lowered_out) {
  Rng rng(7);  // identical inputs for both plans of a pair
  std::map<std::string, TiledMatrix> bindings;
  for (const TiledMatrix& m : inputs) {
    ASSERT_TRUE(GenerateMatrix(m, FillKind::kUniform, 0.0, &rng, store).ok());
    bindings.emplace(m.name, m);
  }
  LoweringOptions lowering;
  lowering.tile_dim = kTile;
  if (config.split_k) {
    lowering.mm_params = [](int64_t, int64_t, int64_t) {
      return MatMulParams{2, 2, 1};
    };
  }
  auto lowered = Lower(program, bindings, lowering);
  ASSERT_TRUE(lowered.ok()) << lowered.status();

  RealEngine engine(ClusterConfig{MachineProfile{}, 2, 2},
                    RealEngineOptions{});
  TileOpCostModel cost;
  ExecutorOptions options;
  options.job_startup_seconds = 0.0;
  options.kernel_mode = config.kernel;
  options.memory_budget_bytes = config.memory_budget_bytes;
  Executor executor(store, &engine, &cost, options);
  auto stats = executor.Run(lowered->plan);
  ASSERT_TRUE(stats.ok()) << stats.status();
  *lowered_out = std::move(lowered).value();
}

void ExpectSameBits(const TiledMatrix& m, TileStore* in_place,
                    TileStore* materialized) {
  for (int64_t gr = 0; gr < m.layout.grid_rows(); ++gr) {
    for (int64_t gc = 0; gc < m.layout.grid_cols(); ++gc) {
      auto a = in_place->Get(m.name, TileId{gr, gc}, -1);
      auto b = materialized->Get(m.name, TileId{gr, gc}, -1);
      ASSERT_TRUE(a.ok()) << a.status();
      ASSERT_TRUE(b.ok()) << b.status();
      ASSERT_EQ((*a)->size(), (*b)->size());
      for (int64_t i = 0; i < (*a)->size(); ++i) {
        ASSERT_EQ((*a)->data()[i], (*b)->data()[i])
            << m.name << " tile (" << gr << "," << gc
            << ") differs at element " << i;
      }
    }
  }
}

class InPlaceTransposeTest : public ::testing::TestWithParam<RunConfig> {
 protected:
  void ExpectPairBitIdentical(const ProgramPair& pair) {
    const RunConfig& config = GetParam();
    InMemoryTileStore in_place_store, materialized_store;
    LoweredProgram in_place, materialized;
    LowerAndRun(pair.in_place, pair.inputs, config, &in_place_store,
                &in_place);
    LowerAndRun(pair.materialized, pair.inputs, config, &materialized_store,
                &materialized);
    if (HasFatalFailure()) return;
    EXPECT_EQ(CountTransposeJobs(in_place.plan), 0)
        << in_place.plan.DebugString();
    EXPECT_GT(CountTransposeJobs(materialized.plan), 0)
        << materialized.plan.DebugString();
    for (const std::string& target : pair.outputs) {
      const TiledMatrix& out = in_place.outputs.at(target);
      ASSERT_EQ(out.name, materialized.outputs.at(target).name);
      ExpectSameBits(out, &in_place_store, &materialized_store);
    }
  }
};

TEST_P(InPlaceTransposeTest, Rsvd1) {
  ExpectPairBitIdentical(Rsvd1(GetParam().ragged));
}

TEST_P(InPlaceTransposeTest, GnmfIteration) {
  ExpectPairBitIdentical(GnmfIteration(GetParam().ragged));
}

TEST_P(InPlaceTransposeTest, LinRegStep) {
  ExpectPairBitIdentical(LinRegStep(GetParam().ragged));
}

// A budget of 8 tiles per node leaves each of a node's 2 slots 4 pinned
// tiles: operand panels spill and stream back in.
constexpr int64_t kTightBudget = 8 * kTile * kTile * 8;

INSTANTIATE_TEST_SUITE_P(
    Configs, InPlaceTransposeTest,
    ::testing::Values(
        RunConfig{"scalar", KernelMode::kScalar},
        RunConfig{"simd", KernelMode::kAuto},
        RunConfig{"scalar_budget", KernelMode::kScalar, kTightBudget},
        RunConfig{"simd_budget", KernelMode::kAuto, kTightBudget},
        RunConfig{"scalar_split_k", KernelMode::kScalar, 0, true},
        RunConfig{"simd_split_k", KernelMode::kAuto, 0, true},
        RunConfig{"scalar_ragged", KernelMode::kScalar, 0, false, true},
        RunConfig{"simd_ragged", KernelMode::kAuto, 0, false, true}),
    [](const ::testing::TestParamInfo<RunConfig>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Plan shapes
// ---------------------------------------------------------------------------

std::map<std::string, TiledMatrix> Bindings(const ProgramPair& pair) {
  std::map<std::string, TiledMatrix> bindings;
  for (const TiledMatrix& m : pair.inputs) bindings.emplace(m.name, m);
  return bindings;
}

TEST(InPlaceTransposePlanTest, CatalogProgramsLoseTheirTransposeJobs) {
  // RSVD-1: A*Omega, A^T*(.), A*(.). GNMF: W^T W, (W^T W) H, W^T V with
  // the H update fused in, and the same three for W. LinReg: X w - y, then
  // X^T (.) with the update fused in.
  const std::pair<ProgramPair, size_t> cases[] = {
      {Rsvd1(false), 3}, {GnmfIteration(false), 6}, {LinRegStep(false), 2}};
  for (const auto& [pair, jobs] : cases) {
    LoweringOptions lowering;
    lowering.tile_dim = kTile;
    auto lowered = Lower(pair.in_place, Bindings(pair), lowering);
    ASSERT_TRUE(lowered.ok()) << lowered.status();
    EXPECT_EQ(lowered->plan.jobs.size(), jobs) << lowered->plan.DebugString();
    EXPECT_EQ(CountTransposeJobs(lowered->plan), 0);
  }
}

TEST(InPlaceTransposePlanTest, UnfusedPlansStillMaterializeTransposes) {
  // Ablation A1 (fusion off) keeps one job per operator, transposes
  // included.
  const ProgramPair gnmf = GnmfIteration(false);
  LoweringOptions lowering;
  lowering.tile_dim = kTile;
  lowering.enable_fusion = false;
  auto lowered = Lower(gnmf.in_place, Bindings(gnmf), lowering);
  ASSERT_TRUE(lowered.ok()) << lowered.status();
  EXPECT_EQ(CountTransposeJobs(lowered->plan), 2);
}

TEST(InPlaceTransposePlanTest, DebugStringMarksTransposedOperands) {
  const ProgramPair linreg = LinRegStep(false);
  LoweringOptions lowering;
  lowering.tile_dim = kTile;
  auto lowered = Lower(linreg.in_place, Bindings(linreg), lowering);
  ASSERT_TRUE(lowered.ok()) << lowered.status();
  EXPECT_NE(lowered->plan.DebugString().find(" = X^T * "), std::string::npos)
      << lowered->plan.DebugString();
}

}  // namespace
}  // namespace cumulon
