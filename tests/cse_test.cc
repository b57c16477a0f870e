#include <map>

#include <gtest/gtest.h>

#include "cluster/real_engine.h"
#include "common/rng.h"
#include "cost/cost_model.h"
#include "exec/executor.h"
#include "lang/interpreter.h"
#include "lang/lowering.h"
#include "lang/programs.h"
#include "matrix/dense_matrix.h"
#include "matrix/tiled_matrix.h"
#include "verify/verify.h"

namespace cumulon {
namespace {

class CseTest : public ::testing::Test {
 protected:
  CseTest()
      : engine_(ClusterConfig{MachineProfile{}, 2, 2}, RealEngineOptions{}),
        executor_(&store_, &engine_, &cost_, ExecutorOptions{}) {}

  DenseMatrix Bind(const std::string& name, int64_t rows, int64_t cols) {
    TiledMatrix m{name, TileLayout::Square(rows, cols, 8)};
    DenseMatrix dense = DenseMatrix::Gaussian(rows, cols, &rng_);
    CUMULON_CHECK(StoreDense(dense, m, &store_).ok());
    bindings_.insert_or_assign(name, m);
    dense_env_.insert_or_assign(name, dense);
    return dense;
  }

  LoweredProgram LowerIt(const Program& program, bool cse = true) {
    LoweringOptions lowering;
    lowering.tile_dim = 8;
    lowering.enable_cse = cse;
    auto lowered = Lower(program, bindings_, lowering);
    CUMULON_CHECK(lowered.ok()) << lowered.status();
    // CSE reuse must never break the plan invariants: full verifier pass
    // (dependencies, coverage, determinism) on every lowered plan.
    PlanVerifyOptions verify_options;
    verify_options.check_external = true;
    for (const auto& [name, matrix] : bindings_) {
      verify_options.external_matrices.insert(matrix.name);
    }
    verify_options.require_determinism = true;
    const VerifyReport report = VerifyPlan(lowered->plan, verify_options);
    CUMULON_CHECK(report.ok()) << report.ToString();
    return std::move(lowered).value();
  }

  Rng rng_{131};
  InMemoryTileStore store_;
  TileOpCostModel cost_;
  RealEngine engine_;
  Executor executor_;
  std::map<std::string, TiledMatrix> bindings_;
  std::map<std::string, DenseMatrix> dense_env_;
};

TEST_F(CseTest, IdenticalSubexpressionsLowerOnce) {
  Bind("A", 16, 16);
  Program p;
  auto a = Expr::Input("A", 16, 16);
  // Both targets need A*A. (Fusion disabled so the shared product is a
  // materialized subexpression rather than two fused multiply jobs —
  // fused roots are target-specific and bypass CSE by design.)
  p.Assign("X", Scale(a * a, 2.0));
  p.Assign("Y", Scale(a * a, 3.0));
  auto lower_with = [&](bool cse) {
    LoweringOptions lowering;
    lowering.tile_dim = 8;
    lowering.enable_fusion = false;
    lowering.enable_cse = cse;
    auto lowered = Lower(p, bindings_, lowering);
    CUMULON_CHECK(lowered.ok()) << lowered.status();
    const VerifyReport report = VerifyPlan(lowered->plan);
    CUMULON_CHECK(report.ok()) << report.ToString();
    return lowered->plan.jobs.size();
  };
  EXPECT_LT(lower_with(true), lower_with(false));

  // And the shared plan still computes the right values.
  auto lowered = LowerIt(p, true);
  ASSERT_TRUE(executor_.Run(lowered.plan).ok());
  auto reference = EvalProgram(p, dense_env_);
  ASSERT_TRUE(reference.ok());
  auto y = LoadDense(lowered.outputs.at("Y"), &store_);
  ASSERT_TRUE(y.ok());
  auto diff = reference->at("Y").MaxAbsDiff(*y);
  ASSERT_TRUE(diff.ok());
  EXPECT_LT(diff.value(), 1e-9);
}

/// Regression test for a real bug the GNMF iteration exposed: when an
/// assignment target shadows an input binding, a stale CSE entry keyed on
/// the *old* matrix must not satisfy lookups against the *new* version.
TEST_F(CseTest, ReassignmentInvalidatesValueIdentity) {
  DenseMatrix da = Bind("A", 8, 8);
  Program p;
  auto a = Expr::Input("A", 8, 8);
  // tmp = A^T used while A still has its original value...
  p.Assign("First", T(a) * a);
  // ...then A is *reassigned*...
  p.Assign("A", Scale(a, 2.0));
  // ...and A^T is needed again, now over the NEW A.
  p.Assign("Second", T(Expr::Input("A", 8, 8)) * Expr::Input("A", 8, 8));

  auto lowered = LowerIt(p, true);
  auto stats = executor_.Run(lowered.plan);
  ASSERT_TRUE(stats.ok()) << stats.status();

  auto reference = EvalProgram(p, dense_env_);
  ASSERT_TRUE(reference.ok()) << reference.status();
  for (const char* target : {"First", "A", "Second"}) {
    auto loaded = LoadDense(lowered.outputs.at(target), &store_);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    auto diff = reference->at(target).MaxAbsDiff(*loaded);
    ASSERT_TRUE(diff.ok());
    EXPECT_LT(diff.value(), 1e-9) << target;
  }
  // In particular Second = (2A)^T (2A) = 4 * First.
  auto first = LoadDense(lowered.outputs.at("First"), &store_);
  auto second = LoadDense(lowered.outputs.at("Second"), &store_);
  ASSERT_TRUE(first.ok() && second.ok());
  auto scaled = first->Unary(UnaryOp::kScale, 4.0);
  auto diff = scaled.MaxAbsDiff(*second);
  ASSERT_TRUE(diff.ok());
  EXPECT_LT(diff.value(), 1e-9);
}

TEST_F(CseTest, TargetShadowingInputGetsVersionedName) {
  Bind("A", 8, 8);
  Program p;
  p.Assign("A", Scale(Expr::Input("A", 8, 8), 2.0));
  auto lowered = LowerIt(p);
  // The new value must not overwrite the caller's input matrix in place.
  EXPECT_EQ(lowered.outputs.at("A").name, "A@v1");
}

TEST_F(CseTest, SupersededVersionsBecomeTemporaries) {
  Bind("A", 8, 8);
  Program p;
  auto a = Expr::Input("A", 8, 8);
  p.Assign("X", Scale(a, 2.0));
  p.Assign("X", Scale(Expr::Input("X", 8, 8), 2.0));
  p.Assign("X", Scale(Expr::Input("X", 8, 8), 2.0));
  auto lowered = LowerIt(p);
  // X and X@v2 are garbage once X@v3 exists; the input A is not.
  int superseded = 0;
  for (const std::string& temp : lowered.plan.temporaries) {
    EXPECT_NE(temp, "A");
    EXPECT_NE(temp, lowered.outputs.at("X").name);
    if (temp == "X" || temp == "X@v2") ++superseded;
  }
  EXPECT_EQ(superseded, 2);

  ASSERT_TRUE(executor_.Run(lowered.plan).ok());
  // After the run only the final version remains.
  EXPECT_FALSE(store_.Get("X", TileId{0, 0}, -1).ok());
  EXPECT_TRUE(store_.Get("X@v3", TileId{0, 0}, -1).ok());
  EXPECT_TRUE(store_.Get("A", TileId{0, 0}, -1).ok());
}

TEST_F(CseTest, CseRespectsScalarDifferences) {
  Bind("A", 8, 8);
  Program p;
  auto a = Expr::Input("A", 8, 8);
  p.Assign("X", Scale(a, 2.0) + Scale(a, 3.0));
  auto lowered = LowerIt(p);
  ASSERT_TRUE(executor_.Run(lowered.plan).ok());
  auto reference = EvalProgram(p, dense_env_);
  ASSERT_TRUE(reference.ok());
  auto loaded = LoadDense(lowered.outputs.at("X"), &store_);
  ASSERT_TRUE(loaded.ok());
  auto diff = reference->at("X").MaxAbsDiff(*loaded);
  ASSERT_TRUE(diff.ok());
  EXPECT_LT(diff.value(), 1e-10);
}

TEST_F(CseTest, GnmfIterationSharesTheTranspose) {
  // GNMF's H update needs W^T V and (W^T W) H; a follow-up assignment
  // needs W^T W again. The multiplies read W^T in place, so no plan has a
  // transpose job, and what CSE shares of the transpose is the one
  // subexpression built from it that still materializes: the Gram
  // product W^T W.
  const int64_t m = 16, n = 12, k = 4;
  Bind("V", m, n);
  Bind("W", m, k);
  Bind("H", k, n);
  auto v = Expr::Input("V", m, n);
  auto w = Expr::Input("W", m, k);
  auto h = Expr::Input("H", k, n);
  Program p;
  p.Assign("H", EMul(h, EDiv(T(w) * v, T(w) * w * h)));
  p.Assign("G", T(w) * w * Expr::Input("H", k, n));

  struct JobCounts {
    int multiplies = 0;
    int transposes = 0;
  };
  auto count_jobs = [&](bool cse) {
    const LoweredProgram lowered = LowerIt(p, cse);
    JobCounts counts;
    for (const auto& job : lowered.plan.jobs) {
      if (dynamic_cast<const MatMulJob*>(job.get()) != nullptr) {
        ++counts.multiplies;
      }
      if (dynamic_cast<const TransposeJob*>(job.get()) != nullptr) {
        ++counts.transposes;
      }
    }
    return counts;
  };
  const JobCounts shared = count_jobs(true);
  const JobCounts unshared = count_jobs(false);
  EXPECT_EQ(shared.multiplies, unshared.multiplies - 1);
  EXPECT_EQ(shared.transposes, 0);
  EXPECT_EQ(unshared.transposes, 0);
}

}  // namespace
}  // namespace cumulon
