// Multiplies read transposed operands in place. A program lowered with
// T(X) under a multiply (the operand is marked transposed, no transpose
// job) must compute exactly the bits of the same program with the
// transpose materialized by an explicit `Xt = T(X)` assignment — for a
// plain transposed product on RSVD-1's shapes and a GNMF iteration, in
// both kernel modes, under a memory budget, with split-k multiplies, and
// on a ragged tile grid. RSVD-1 and a linreg step hold a chain
// X^T * f(X * V), which their in-place programs compute from one read of
// X (a RowPanelJob); those pairs agree to 1e-12 relative instead.

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
#include "matrix/dense_matrix.h"
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
  std::vector<std::string> outputs;  // targets whose results must agree
  /// The in-place program holds a chain X^T * f(X * V) and lowers it to a
  /// RowPanelJob; its twin reads Xt, another matrix, so it keeps two
  /// multiplies. The job's partial sums round differently, so such a pair
  /// agrees to 1e-12 relative; any other pair agrees bit for bit.
  bool row_panel = false;
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
          {"Y"},
          /*row_panel=*/true};
}

/// Y = A^T * B on RSVD-1's shapes, B an input: a transposed read with no
/// chain around it, so the bitwise contract covers every config there.
ProgramPair TransposedProduct(bool ragged) {
  const int64_t m = ragged ? 27 : 32;
  const int64_t n = ragged ? 19 : 24;
  const int64_t l = ragged ? 5 : 8;
  auto a = Expr::Input("A", m, n);
  auto b = Expr::Input("B", m, l);
  Program in_place;
  in_place.Assign("Y", T(a) * b);
  Program materialized;
  materialized.Assign("At", T(a));
  materialized.Assign("Y", Expr::Input("At", n, m) * b);
  return {OptimizeProgram(in_place), OptimizeProgram(materialized),
          {Input("A", m, n), Input("B", m, l)},
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
          {"w"},
          /*row_panel=*/true};
}

template <typename Job>
int CountJobs(const PhysicalPlan& plan) {
  int count = 0;
  for (const auto& job : plan.jobs) {
    if (dynamic_cast<const Job*>(job.get()) != nullptr) ++count;
  }
  return count;
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
    lowering.mm_params = [](const TileLayout&, const TileLayout&) {
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

/// max |in_place - materialized| <= tolerance * max |materialized|.
void ExpectWithinRelative(const TiledMatrix& m, TileStore* in_place,
                          TileStore* materialized, double tolerance) {
  auto a = LoadDense(m, in_place);
  auto b = LoadDense(m, materialized);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  auto diff = a->MaxAbsDiff(*b);
  auto scale = b->MaxAbsDiff(DenseMatrix(b->rows(), b->cols()));
  ASSERT_TRUE(diff.ok()) << diff.status();
  ASSERT_TRUE(scale.ok()) << scale.status();
  EXPECT_LE(*diff, tolerance * *scale) << m.name;
}

class InPlaceTransposeTest : public ::testing::TestWithParam<RunConfig> {
 protected:
  void ExpectPairAgrees(const ProgramPair& pair) {
    const RunConfig& config = GetParam();
    InMemoryTileStore in_place_store, materialized_store;
    LoweredProgram in_place, materialized;
    LowerAndRun(pair.in_place, pair.inputs, config, &in_place_store,
                &in_place);
    LowerAndRun(pair.materialized, pair.inputs, config, &materialized_store,
                &materialized);
    if (HasFatalFailure()) return;
    EXPECT_EQ(CountJobs<TransposeJob>(in_place.plan), 0)
        << in_place.plan.DebugString();
    EXPECT_GT(CountJobs<TransposeJob>(materialized.plan), 0)
        << materialized.plan.DebugString();
    EXPECT_EQ(CountJobs<RowPanelJob>(in_place.plan) > 0, pair.row_panel)
        << in_place.plan.DebugString();
    EXPECT_EQ(CountJobs<RowPanelJob>(materialized.plan), 0)
        << materialized.plan.DebugString();
    for (const std::string& target : pair.outputs) {
      const TiledMatrix& out = in_place.outputs.at(target);
      ASSERT_EQ(out.name, materialized.outputs.at(target).name);
      if (pair.row_panel) {
        ExpectWithinRelative(out, &in_place_store, &materialized_store,
                             1e-12);
      } else {
        ExpectSameBits(out, &in_place_store, &materialized_store);
      }
    }
  }
};

TEST_P(InPlaceTransposeTest, Rsvd1) {
  ExpectPairAgrees(Rsvd1(GetParam().ragged));
}

TEST_P(InPlaceTransposeTest, TransposedProduct) {
  ExpectPairAgrees(TransposedProduct(GetParam().ragged));
}

TEST_P(InPlaceTransposeTest, GnmfIteration) {
  ExpectPairAgrees(GnmfIteration(GetParam().ragged));
}

TEST_P(InPlaceTransposeTest, LinRegStep) {
  ExpectPairAgrees(LinRegStep(GetParam().ragged));
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
  // RSVD-1: A^T (A Omega) as a row-panel job and its merge, then A*(.).
  // GNMF: W^T W, then W^T V with the H update fused in, (W^T W) H among
  // its steps, and the same two for W. LinReg: X^T (X w - y) as a
  // row-panel job, and its merge with the update fused in.
  const std::pair<ProgramPair, size_t> cases[] = {
      {Rsvd1(false), 3}, {GnmfIteration(false), 4}, {LinRegStep(false), 2}};
  for (const auto& [pair, jobs] : cases) {
    LoweringOptions lowering;
    lowering.tile_dim = kTile;
    auto lowered = Lower(pair.in_place, Bindings(pair), lowering);
    ASSERT_TRUE(lowered.ok()) << lowered.status();
    EXPECT_EQ(lowered->plan.jobs.size(), jobs) << lowered->plan.DebugString();
    EXPECT_EQ(CountJobs<TransposeJob>(lowered->plan), 0);
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
  EXPECT_EQ(CountJobs<TransposeJob>(lowered->plan), 2);
}

TEST(InPlaceTransposePlanTest, DebugStringMarksTransposedOperands) {
  const ProgramPair gnmf = GnmfIteration(false);
  LoweringOptions lowering;
  lowering.tile_dim = kTile;
  auto lowered = Lower(gnmf.in_place, Bindings(gnmf), lowering);
  ASSERT_TRUE(lowered.ok()) << lowered.status();
  EXPECT_NE(lowered->plan.DebugString().find(" = W^T * V "),
            std::string::npos)
      << lowered->plan.DebugString();
}

}  // namespace
}  // namespace cumulon
