// A chain X^T * f(X * V) reads X once: lowering turns it into a
// RowPanelJob, whose tasks each compute f(X_i V) and X_i^T f(X_i V) for
// two row panels X_i and write one partial, plus the SumJob that merges
// the partials. These tests pin the plans the chain gives (and where it
// must not apply), check RSVD-1, linreg and logreg against the
// single-node interpreter, and check that the prefetch window and a
// spilling memory budget leave every bit unchanged.

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
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
#include "lang/interpreter.h"
#include "lang/logical_optimizer.h"
#include "lang/lowering.h"
#include "lang/programs.h"
#include "matrix/dense_matrix.h"
#include "matrix/tiled_matrix.h"

namespace cumulon {
namespace {

constexpr int64_t kTile = 8;

/// A program, its dense inputs, and the targets to check.
struct Workload {
  Program program;
  std::map<std::string, DenseMatrix> inputs;
  std::vector<std::string> outputs;
};

Workload Rsvd1(int64_t m, int64_t n, int64_t l) {
  RsvdSpec spec;
  spec.m = m;
  spec.n = n;
  spec.l = l;
  Rng rng(3);
  Workload w{BuildRsvd1(spec), {}, {"Y"}};
  w.inputs.emplace("A", DenseMatrix::Gaussian(m, n, &rng));
  w.inputs.emplace("Omega", DenseMatrix::Gaussian(n, l, &rng));
  return w;
}

Workload LinReg(int64_t samples, int64_t features) {
  LinRegSpec spec;
  spec.samples = samples;
  spec.features = features;
  spec.alpha = 0.05;  // large enough that the gradient dominates the result
  Rng rng(5);
  Workload w{BuildLinRegStep(spec), {}, {"w"}};
  w.inputs.emplace("X", DenseMatrix::Gaussian(samples, features, &rng));
  w.inputs.emplace("w", DenseMatrix::Gaussian(features, 1, &rng));
  w.inputs.emplace("y", DenseMatrix::Gaussian(samples, 1, &rng));
  return w;
}

Workload LogReg(int64_t samples, int64_t features) {
  LogRegSpec spec;
  spec.samples = samples;
  spec.features = features;
  spec.alpha = 0.5;
  Rng rng(9);
  Workload w{BuildLogRegStep(spec), {}, {"w"}};
  w.inputs.emplace("X", DenseMatrix::Gaussian(samples, features, &rng));
  w.inputs.emplace("w", DenseMatrix::Gaussian(features, 1, &rng));
  w.inputs.emplace("y", DenseMatrix::Uniform(samples, 1, &rng));
  return w;
}

std::map<std::string, TiledMatrix> Bindings(const Workload& w) {
  std::map<std::string, TiledMatrix> bindings;
  for (const auto& [name, dense] : w.inputs) {
    bindings.emplace(name, TiledMatrix{name, TileLayout::Square(
                                                 dense.rows(), dense.cols(),
                                                 kTile)});
  }
  return bindings;
}

LoweredProgram LowerOrDie(const Workload& w,
                          LoweringOptions lowering = LoweringOptions{}) {
  lowering.tile_dim = kTile;
  auto lowered = Lower(OptimizeProgram(w.program), Bindings(w), lowering);
  CUMULON_CHECK(lowered.ok()) << lowered.status();
  return std::move(lowered).value();
}

/// The plan's job kinds in order: each DebugString up to its '['.
std::vector<std::string> JobKinds(const PhysicalPlan& plan) {
  std::vector<std::string> kinds;
  for (const auto& job : plan.jobs) {
    const std::string line = job->DebugString();
    kinds.push_back(line.substr(0, line.find('[')));
  }
  return kinds;
}

const RowPanelJob* FirstRowPanel(const PhysicalPlan& plan) {
  for (const auto& job : plan.jobs) {
    if (const auto* rp = dynamic_cast<const RowPanelJob*>(job.get())) {
      return rp;
    }
  }
  return nullptr;
}

/// One execution setting.
struct RunSettings {
  int64_t prefetch_bytes = 0;
  int64_t memory_budget_bytes = 0;
};

struct RunOutput {
  PlanStats stats;
  std::map<std::string, DenseMatrix> outputs;
};

/// Stores the inputs in a fresh DFS, lowers and runs the program on the
/// real engine (2 machines x 2 slots), and loads the targets back.
RunOutput Execute(const Workload& w, const RunSettings& settings) {
  SimDfs dfs(DfsOptions{});
  DfsTileStore store(&dfs);
  store.EnablePrefetch(2);
  const std::map<std::string, TiledMatrix> bindings = Bindings(w);
  for (const auto& [name, m] : bindings) {
    CUMULON_CHECK(StoreDense(w.inputs.at(name), m, &store).ok());
  }
  const LoweredProgram lowered = LowerOrDie(w);

  RealEngine engine(ClusterConfig{MachineProfile{}, 2, 2},
                    RealEngineOptions{});
  TileOpCostModel cost;
  ExecutorOptions options;
  options.job_startup_seconds = 0.0;
  options.prefetch_budget_bytes = settings.prefetch_bytes;
  options.memory_budget_bytes = settings.memory_budget_bytes;
  Executor executor(&store, &engine, &cost, options);
  auto stats = executor.Run(lowered.plan);
  CUMULON_CHECK(stats.ok()) << stats.status();

  RunOutput out{std::move(stats).value(), {}};
  for (const std::string& target : w.outputs) {
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

// ---------------------------------------------------------------------------
// Plan shapes
// ---------------------------------------------------------------------------

TEST(RowPanelPlanTest, Rsvd1ReadsATwice) {
  // A is 64 x 24 in 8 x 8 tiles: 8 row panels, two per task.
  const LoweredProgram lowered = LowerOrDie(Rsvd1(64, 24, 8));
  EXPECT_EQ(JobKinds(lowered.plan),
            (std::vector<std::string>{"RowPanel", "Sum", "MatMul"}))
      << lowered.plan.DebugString();
  const RowPanelJob* rp = FirstRowPanel(lowered.plan);
  ASSERT_NE(rp, nullptr);
  EXPECT_EQ(rp->NumPartials(), 4);
  EXPECT_EQ(rp->OutputMatrices().size(), 4u);
}

TEST(RowPanelPlanTest, RegressionGradientsAreOneChain) {
  for (const Workload& w : {LinReg(40, 16), LogReg(29, 11)}) {
    const LoweredProgram lowered = LowerOrDie(w);
    EXPECT_EQ(JobKinds(lowered.plan),
              (std::vector<std::string>{"RowPanel", "Sum"}))
        << lowered.plan.DebugString();
  }
}

TEST(RowPanelPlanTest, GnmfPlanIsUnchanged) {
  GnmfSpec spec;
  spec.m = 24;
  spec.n = 16;
  spec.k = 8;
  Rng rng(1);
  Workload w{BuildGnmfIteration(spec), {}, {"H", "W"}};
  w.inputs.emplace("V", DenseMatrix::Uniform(spec.m, spec.n, &rng));
  w.inputs.emplace("W", DenseMatrix::Uniform(spec.m, spec.k, &rng));
  w.inputs.emplace("H", DenseMatrix::Uniform(spec.k, spec.n, &rng));
  // No chain applies, byte for byte; (W^T W) H and W (H H^T) are product
  // steps of the updates that divide by them. The three multiplies by a
  // one-tile-column operand leave their row groups to the build (bi=0).
  EXPECT_EQ(
      LowerOrDie(w).plan.DebugString(),
      "MatMul[mm_tmp_0] tmp_0 = W^T * W (bi=0,bj=1,bk=-1)\n"
      "MatMul[mm_H@v1] H@v1 = W^T * V (bi=1,bj=1,bk=-1) "
      "epi{div(v, tmp_0*H) . mul(H, v)}\n"
      "MatMul[mm_tmp_1] tmp_1 = H@v1 * H@v1^T (bi=0,bj=1,bk=-1)\n"
      "MatMul[mm_W@v1] W@v1 = V * H@v1^T (bi=0,bj=1,bk=-1) "
      "epi{div(v, W*tmp_1) . mul(W, v)}\n");
}

TEST(RowPanelPlanTest, WideSketchKeepsTwoMultiplies) {
  // Omega 24 x 16 spans two tile columns.
  const LoweredProgram lowered = LowerOrDie(Rsvd1(64, 24, 16));
  EXPECT_EQ(JobKinds(lowered.plan),
            (std::vector<std::string>{"MatMul", "MatMul", "MatMul"}))
      << lowered.plan.DebugString();
}

TEST(RowPanelPlanTest, FusionOffKeepsOneJobPerOperator) {
  LoweringOptions lowering;
  lowering.enable_fusion = false;
  for (const Workload& w : {Rsvd1(64, 24, 8), LinReg(40, 16)}) {
    const LoweredProgram lowered = LowerOrDie(w, lowering);
    EXPECT_EQ(FirstRowPanel(lowered.plan), nullptr)
        << lowered.plan.DebugString();
  }
}

TEST(RowPanelPlanTest, InnerProductCseHitSkipsTheChain) {
  // S lowers A * Omega as a value, so when Y's chain meets it, X * V is a
  // CSE hit and the chain does not apply, with f empty or not.
  auto a = Expr::Input("A", 64, 24);
  auto b = Expr::Input("B", 64, 24);
  auto omega = Expr::Input("Omega", 24, 8);
  const std::pair<ExprPtr, size_t> cases[] = {
      // The hit is f(X * V) itself: Y reads it, so A * Omega runs once.
      {T(a) * (a * omega), 3},
      // f(X * V) is not materialized: fusion recomputes A * Omega with
      // the scale as its epilogue.
      {T(a) * Scale(a * omega, 2.0), 4}};
  for (const auto& [y, multiplies] : cases) {
    Workload w;
    w.program.Assign("S", T(b) * (a * omega));
    w.program.Assign("Y", y);
    Rng rng(4);
    w.inputs.emplace("A", DenseMatrix::Gaussian(64, 24, &rng));
    w.inputs.emplace("B", DenseMatrix::Gaussian(64, 24, &rng));
    w.inputs.emplace("Omega", DenseMatrix::Gaussian(24, 8, &rng));
    const LoweredProgram lowered = LowerOrDie(w);
    EXPECT_EQ(JobKinds(lowered.plan),
              std::vector<std::string>(multiplies, "MatMul"))
        << lowered.plan.DebugString();
  }
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// Ragged grids (dims not multiples of the tile) and odd row-panel counts,
/// where the last task has a single panel.
std::vector<std::pair<std::string, Workload>> ResultCases() {
  return {{"rsvd1 8 panels", Rsvd1(64, 24, 8)},
          {"rsvd1 ragged, 5 panels", Rsvd1(37, 19, 5)},
          {"linreg 5 panels", LinReg(40, 16)},
          {"linreg ragged, 4 panels", LinReg(29, 11)},
          {"logreg ragged, 3 panels", LogReg(19, 13)},
          {"logreg 1 panel", LogReg(8, 16)}};
}

TEST(RowPanelResultTest, MatchesInterpreter) {
  for (const auto& [what, w] : ResultCases()) {
    SCOPED_TRACE(what);
    ASSERT_NE(FirstRowPanel(LowerOrDie(w).plan), nullptr);
    auto reference = EvalProgram(w.program, w.inputs);
    ASSERT_TRUE(reference.ok()) << reference.status();
    const RunOutput run = Execute(w, RunSettings{});
    for (const std::string& target : w.outputs) {
      const DenseMatrix& expected = reference->at(target);
      auto diff = run.outputs.at(target).MaxAbsDiff(expected);
      auto scale =
          expected.MaxAbsDiff(DenseMatrix(expected.rows(), expected.cols()));
      ASSERT_TRUE(diff.ok() && scale.ok());
      EXPECT_LE(*diff, 1e-12 * *scale) << target;
    }
  }
}

TEST(RowPanelResultTest, PrefetchWindowDoesNotChangeBits) {
  for (const auto& [what, w] : ResultCases()) {
    SCOPED_TRACE(what);
    const RunOutput blocking = Execute(w, RunSettings{0, 0});
    const RunOutput prefetched = Execute(w, RunSettings{int64_t{64} << 20, 0});
    for (const std::string& target : w.outputs) {
      ExpectSameBits(blocking.outputs.at(target),
                     prefetched.outputs.at(target), target);
    }
  }
}

TEST(RowPanelResultTest, SpillingBudgetDoesNotChangeBits) {
  // Four 8 x 8 tiles per node leave each of a node's 2 slots two pinned
  // tiles, fewer than one panel of X plus V: panels spill and stream back.
  constexpr int64_t kTightBudget = 4 * kTile * kTile * 8;
  for (const auto& [what, w] : ResultCases()) {
    SCOPED_TRACE(what);
    const RunOutput resident = Execute(w, RunSettings{int64_t{64} << 20, 0});
    const RunOutput budgeted =
        Execute(w, RunSettings{int64_t{64} << 20, kTightBudget});
    EXPECT_GT(budgeted.stats.spill_evictions, 0);
    for (const std::string& target : w.outputs) {
      ExpectSameBits(resident.outputs.at(target),
                     budgeted.outputs.at(target), target);
    }
  }
}

}  // namespace
}  // namespace cumulon
