#include <map>

#include <gtest/gtest.h>

#include "cluster/real_engine.h"
#include "common/rng.h"
#include "cost/cost_model.h"
#include "exec/executor.h"
#include "lang/expr.h"
#include "lang/logical_optimizer.h"
#include "lang/lowering.h"
#include "lang/programs.h"
#include "matrix/dense_matrix.h"
#include "matrix/tiled_matrix.h"

namespace cumulon {
namespace {

// ---------------------------------------------------------------------------
// Expr construction
// ---------------------------------------------------------------------------

TEST(ExprTest, InputCarriesShape) {
  auto a = Expr::Input("A", 10, 20);
  EXPECT_EQ(a->kind(), ExprKind::kInput);
  EXPECT_EQ(a->rows(), 10);
  EXPECT_EQ(a->cols(), 20);
  EXPECT_EQ(a->input_name(), "A");
}

TEST(ExprTest, MatMulInfersShape) {
  auto a = Expr::Input("A", 10, 20);
  auto b = Expr::Input("B", 20, 5);
  auto p = Expr::MatMul(a, b);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ((*p)->rows(), 10);
  EXPECT_EQ((*p)->cols(), 5);
}

TEST(ExprTest, MatMulRejectsMismatch) {
  auto a = Expr::Input("A", 10, 20);
  auto b = Expr::Input("B", 30, 5);
  EXPECT_FALSE(Expr::MatMul(a, b).ok());
  EXPECT_FALSE(Expr::MatMul(nullptr, b).ok());
}

TEST(ExprTest, EwBinaryRejectsMismatch) {
  auto a = Expr::Input("A", 10, 20);
  auto b = Expr::Input("B", 10, 21);
  EXPECT_FALSE(Expr::EwBinary(BinaryOp::kAdd, a, b).ok());
}

TEST(ExprTest, TransposeSwapsShape) {
  auto a = Expr::Input("A", 10, 20);
  auto t = Expr::Transpose(a);
  EXPECT_EQ(t->rows(), 20);
  EXPECT_EQ(t->cols(), 10);
}

TEST(ExprTest, OperatorsBuildExpectedKinds) {
  auto a = Expr::Input("A", 4, 4);
  auto b = Expr::Input("B", 4, 4);
  EXPECT_EQ((a * b)->kind(), ExprKind::kMatMul);
  EXPECT_EQ((a + b)->kind(), ExprKind::kEwBinary);
  EXPECT_EQ((a - b)->bop(), BinaryOp::kSub);
  EXPECT_EQ(EMul(a, b)->bop(), BinaryOp::kMul);
  EXPECT_EQ(EDiv(a, b)->bop(), BinaryOp::kDiv);
  EXPECT_EQ(Scale(a, 2.0)->kind(), ExprKind::kEwUnary);
  EXPECT_EQ(T(a)->kind(), ExprKind::kTranspose);
}

TEST(ExprTest, ContainsMatMul) {
  auto a = Expr::Input("A", 4, 4);
  auto b = Expr::Input("B", 4, 4);
  EXPECT_FALSE((a + b)->ContainsMatMul());
  EXPECT_TRUE(Scale(a * b, 2.0)->ContainsMatMul());
}

TEST(ExprTest, DebugStringRendersStructure) {
  auto a = Expr::Input("A", 4, 4);
  auto b = Expr::Input("B", 4, 4);
  EXPECT_EQ((a * b)->DebugString(), "(A * B)");
  EXPECT_EQ(T(a)->DebugString(), "A^T");
}

TEST(ProgramTest, DebugStringListsAssignments) {
  Program p;
  auto a = Expr::Input("A", 2, 2);
  p.Assign("X", Scale(a, 2.0));
  EXPECT_NE(p.DebugString().find("X := "), std::string::npos);
}

// ---------------------------------------------------------------------------
// Logical optimizer
// ---------------------------------------------------------------------------

TEST(OptimizerTest, MatMulFlopsCountsProducts) {
  auto a = Expr::Input("A", 10, 20);
  auto b = Expr::Input("B", 20, 30);
  EXPECT_DOUBLE_EQ(MatMulFlops(a * b), 2.0 * 10 * 20 * 30);
}

TEST(OptimizerTest, ChainReorderingReducesFlops) {
  // (A * B) * v with skinny v: optimal is A * (B * v).
  auto a = Expr::Input("A", 1000, 1000);
  auto b = Expr::Input("B", 1000, 1000);
  auto v = Expr::Input("v", 1000, 1);
  auto naive = (a * b) * v;
  auto optimized = OptimizeExpr(naive);
  EXPECT_LT(MatMulFlops(optimized), MatMulFlops(naive) / 100.0);
  // Optimal shape: A * (B * v).
  EXPECT_EQ(optimized->DebugString(), "(A * (B * v))");
}

TEST(OptimizerTest, RsvdChainBecomesRightAssociated) {
  Program p = BuildRsvd1(RsvdSpec{4096, 1024, 16});
  Program opt = OptimizeProgram(p);
  EXPECT_LT(MatMulFlops(opt.assignments[0].expr),
            MatMulFlops(p.assignments[0].expr) / 10.0);
}

TEST(OptimizerTest, DoubleTransposeEliminated) {
  auto a = Expr::Input("A", 5, 7);
  auto twice = Expr::Transpose(Expr::Transpose(a));
  auto opt = OptimizeExpr(twice);
  EXPECT_EQ(opt->kind(), ExprKind::kInput);
  EXPECT_EQ(opt->DebugString(), "A");
}

TEST(OptimizerTest, PreservesShapes) {
  auto a = Expr::Input("A", 30, 40);
  auto b = Expr::Input("B", 40, 50);
  auto c = Expr::Input("C", 50, 2);
  auto expr = Scale((a * b) * c, 3.0);
  auto opt = OptimizeExpr(expr);
  EXPECT_EQ(opt->rows(), expr->rows());
  EXPECT_EQ(opt->cols(), expr->cols());
}

TEST(OptimizerTest, SingleFactorChainUntouched) {
  auto a = Expr::Input("A", 5, 5);
  auto opt = OptimizeExpr(a);
  EXPECT_EQ(opt.get(), a.get());
}

// ---------------------------------------------------------------------------
// Lowering + end-to-end correctness on the real engine
// ---------------------------------------------------------------------------

/// Runs a program for real on a tiny cluster and returns the outputs.
class LangExecTest : public ::testing::Test {
 protected:
  LangExecTest()
      : engine_(ClusterConfig{MachineProfile{}, 2, 2}, RealEngineOptions{}),
        executor_(&store_, &engine_, &cost_, ExecutorOptions{}) {}

  DenseMatrix Bind(const std::string& name, int64_t rows, int64_t cols) {
    TiledMatrix m{name, TileLayout::Square(rows, cols, tile_dim_)};
    DenseMatrix dense = DenseMatrix::Gaussian(rows, cols, &rng_);
    CUMULON_CHECK(StoreDense(dense, m, &store_).ok());
    bindings_.insert_or_assign(name, m);
    return dense;
  }

  /// Lowers and executes; returns the map of output matrices.
  std::map<std::string, TiledMatrix> Run(const Program& program,
                                         bool fusion = true) {
    LoweringOptions options;
    options.tile_dim = tile_dim_;
    options.enable_fusion = fusion;
    auto lowered = Lower(program, bindings_, options);
    CUMULON_CHECK(lowered.ok()) << lowered.status();
    auto stats = executor_.Run(lowered->plan);
    CUMULON_CHECK(stats.ok()) << stats.status();
    last_num_jobs_ = static_cast<int>(stats->jobs.size());
    return lowered->outputs;
  }

  void ExpectMatches(const TiledMatrix& m, const DenseMatrix& expected,
                     double tol = 1e-8) {
    auto loaded = LoadDense(m, &store_);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    auto diff = expected.MaxAbsDiff(*loaded);
    ASSERT_TRUE(diff.ok()) << diff.status();
    EXPECT_LT(diff.value(), tol);
  }

  int64_t tile_dim_ = 8;
  Rng rng_{17};
  InMemoryTileStore store_;
  TileOpCostModel cost_;
  RealEngine engine_;
  Executor executor_;
  std::map<std::string, TiledMatrix> bindings_;
  int last_num_jobs_ = 0;
};

TEST_F(LangExecTest, SimpleMultiply) {
  DenseMatrix da = Bind("A", 16, 24);
  DenseMatrix db = Bind("B", 24, 8);
  Program p;
  p.Assign("C", Expr::Input("A", 16, 24) * Expr::Input("B", 24, 8));
  auto outputs = Run(p);
  auto expected = da.Multiply(db);
  ASSERT_TRUE(expected.ok());
  ExpectMatches(outputs.at("C"), *expected);
}

TEST_F(LangExecTest, FusedEpilogueMatchesUnfused) {
  DenseMatrix da = Bind("A", 16, 16);
  DenseMatrix db = Bind("B", 16, 16);
  DenseMatrix dd = Bind("D", 16, 16);
  auto build = [] {
    Program p;
    auto a = Expr::Input("A", 16, 16);
    auto b = Expr::Input("B", 16, 16);
    auto d = Expr::Input("D", 16, 16);
    p.Assign("C", Scale(a * b + d, 0.5));
    return p;
  };
  auto fused_out = Run(build(), /*fusion=*/true);
  const int fused_jobs = last_num_jobs_;
  auto loaded_fused = LoadDense(fused_out.at("C"), &store_);
  ASSERT_TRUE(loaded_fused.ok());

  auto unfused_out = Run(build(), /*fusion=*/false);
  const int unfused_jobs = last_num_jobs_;
  auto loaded_unfused = LoadDense(unfused_out.at("C"), &store_);
  ASSERT_TRUE(loaded_unfused.ok());

  auto diff = loaded_fused->MaxAbsDiff(*loaded_unfused);
  ASSERT_TRUE(diff.ok());
  EXPECT_LT(diff.value(), 1e-10);
  EXPECT_LT(fused_jobs, unfused_jobs);  // fusion saves whole jobs

  auto expected = da.Multiply(db)->Binary(BinaryOp::kAdd, dd);
  ASSERT_TRUE(expected.ok());
  ExpectMatches(fused_out.at("C"), expected->Unary(UnaryOp::kScale, 0.5));
}

TEST_F(LangExecTest, TransposeLowering) {
  DenseMatrix da = Bind("A", 24, 16);
  Program p;
  p.Assign("At", T(Expr::Input("A", 24, 16)));
  auto outputs = Run(p);
  ExpectMatches(outputs.at("At"), da.Transpose());
}

TEST_F(LangExecTest, AliasAssignmentCopies) {
  DenseMatrix da = Bind("A", 8, 8);
  Program p;
  p.Assign("B", Expr::Input("A", 8, 8));
  auto outputs = Run(p);
  ExpectMatches(outputs.at("B"), da);
}

TEST_F(LangExecTest, ReassignmentVersionsMatrices) {
  DenseMatrix da = Bind("A", 8, 8);
  Program p;
  auto a = Expr::Input("A", 8, 8);
  p.Assign("X", Scale(a, 2.0));
  p.Assign("X", Scale(Expr::Input("X", 8, 8), 3.0));  // uses previous X
  auto outputs = Run(p);
  EXPECT_EQ(outputs.at("X").name, "X@v2");
  ExpectMatches(outputs.at("X"), da.Unary(UnaryOp::kScale, 6.0));
}

TEST_F(LangExecTest, UnboundInputFailsCleanly) {
  Program p;
  p.Assign("Y", Scale(Expr::Input("missing", 4, 4), 1.0));
  LoweringOptions options;
  options.tile_dim = 8;
  auto lowered = Lower(p, bindings_, options);
  ASSERT_FALSE(lowered.ok());
  EXPECT_EQ(lowered.status().code(), StatusCode::kNotFound);
}

TEST_F(LangExecTest, DimensionMismatchAgainstBindingFails) {
  Bind("A", 8, 8);
  Program p;
  p.Assign("Y", Scale(Expr::Input("A", 8, 9), 1.0));
  LoweringOptions options;
  options.tile_dim = 8;
  auto lowered = Lower(p, bindings_, options);
  ASSERT_FALSE(lowered.ok());
  EXPECT_EQ(lowered.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(LangExecTest, RsvdProgramEndToEnd) {
  RsvdSpec spec;
  spec.m = 24;
  spec.n = 16;
  spec.l = 4;
  DenseMatrix da = Bind("A", spec.m, spec.n);
  DenseMatrix domega = Bind("Omega", spec.n, spec.l);
  Program p = OptimizeProgram(BuildRsvd1(spec));
  auto outputs = Run(p);
  // Reference: A * (A^T * (A * Omega)).
  auto y = da.Multiply(*da.Transpose().Multiply(*da.Multiply(domega)));
  ASSERT_TRUE(y.ok());
  ExpectMatches(outputs.at("Y"), *y, 1e-6);
}

TEST_F(LangExecTest, GnmfIterationEndToEnd) {
  GnmfSpec spec;
  spec.m = 16;
  spec.n = 12;
  spec.k = 4;
  // GNMF needs positive data for the multiplicative updates.
  auto bind_uniform = [&](const std::string& name, int64_t rows,
                          int64_t cols) {
    TiledMatrix m{name, TileLayout::Square(rows, cols, tile_dim_)};
    DenseMatrix dense(rows, cols);
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t c = 0; c < cols; ++c) {
        dense.Set(r, c, rng_.NextDouble(0.1, 1.0));
      }
    }
    CUMULON_CHECK(StoreDense(dense, m, &store_).ok());
    bindings_.insert_or_assign(name, m);
    return dense;
  };
  DenseMatrix dv = bind_uniform("V", spec.m, spec.n);
  DenseMatrix dw = bind_uniform("W", spec.m, spec.k);
  DenseMatrix dh = bind_uniform("H", spec.k, spec.n);

  Program p = OptimizeProgram(BuildGnmfIteration(spec));
  auto outputs = Run(p);

  // Reference updates.
  auto wt = dw.Transpose();
  auto numer_h = wt.Multiply(dv);
  auto denom_h = wt.Multiply(dw)->Multiply(dh);
  auto h_new = dh.Binary(BinaryOp::kMul,
                         *numer_h->Binary(BinaryOp::kDiv, *denom_h));
  ASSERT_TRUE(h_new.ok());
  ExpectMatches(outputs.at("H"), *h_new, 1e-8);

  auto ht = h_new->Transpose();
  auto numer_w = dv.Multiply(ht);
  auto denom_w = dw.Multiply(*h_new)->Multiply(ht);
  auto w_new = dw.Binary(BinaryOp::kMul,
                         *numer_w->Binary(BinaryOp::kDiv, *denom_w));
  ASSERT_TRUE(w_new.ok());
  ExpectMatches(outputs.at("W"), *w_new, 1e-8);
}

TEST_F(LangExecTest, LinRegStepEndToEnd) {
  LinRegSpec spec;
  spec.samples = 24;
  spec.features = 8;
  spec.alpha = 0.01;
  DenseMatrix dx = Bind("X", spec.samples, spec.features);
  DenseMatrix dw = Bind("w", spec.features, 1);
  DenseMatrix dy = Bind("y", spec.samples, 1);
  Program p = OptimizeProgram(BuildLinRegStep(spec));
  auto outputs = Run(p);
  // w - alpha * X^T (X w - y)
  auto xw = dx.Multiply(dw);
  auto residual = xw->Binary(BinaryOp::kSub, dy);
  auto grad = dx.Transpose().Multiply(*residual);
  auto expected =
      dw.Binary(BinaryOp::kSub, grad->Unary(UnaryOp::kScale, spec.alpha));
  ASSERT_TRUE(expected.ok());
  ExpectMatches(outputs.at("w"), *expected, 1e-8);
}

TEST_F(LangExecTest, MatMulParamsCallbackReceivesOperandLayouts) {
  // A is read transposed in place and B is one ragged tile column: the
  // chooser sees op(A) and op(B) as the multiply reads them, edge tiles
  // included.
  Bind("A", 20, 32);
  Bind("B", 20, 5);
  Program p;
  p.Assign("C", T(Expr::Input("A", 20, 32)) * Expr::Input("B", 20, 5));
  LoweringOptions options;
  options.tile_dim = 8;
  bool called = false;
  options.mm_params = [&called](const TileLayout& a, const TileLayout& b) {
    called = true;
    EXPECT_EQ(a, TileLayout::Square(32, 20, 8));
    EXPECT_EQ(b, TileLayout::Square(20, 5, 8));
    EXPECT_EQ(a.grid_rows(), 4);
    EXPECT_EQ(a.grid_cols(), 3);
    EXPECT_EQ(b.grid_cols(), 1);
    return MatMulParams{1, 1, 0};
  };
  auto lowered = Lower(p, bindings_, options);
  ASSERT_TRUE(lowered.ok()) << lowered.status();
  EXPECT_TRUE(called);
}

}  // namespace
}  // namespace cumulon
