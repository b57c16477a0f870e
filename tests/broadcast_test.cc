#include <map>

#include <gtest/gtest.h>

#include "cluster/real_engine.h"
#include "common/rng.h"
#include "cost/cost_model.h"
#include "exec/executor.h"
#include "exec/physical_plan.h"
#include "lang/lowering.h"
#include "matrix/dense_matrix.h"
#include "matrix/tiled_matrix.h"

namespace cumulon {
namespace {

// ---------------------------------------------------------------------------
// Kernel
// ---------------------------------------------------------------------------

TEST(BroadcastKernelTest, RowVectorAppliesPerColumn) {
  Tile a(3, 4), vec(1, 4), out(3, 4);
  FillTile(&a, 10.0);
  for (int64_t c = 0; c < 4; ++c) vec.Set(0, c, c);
  ASSERT_TRUE(EwBroadcast(BinaryOp::kAdd, a, vec, true, false, &out).ok());
  EXPECT_DOUBLE_EQ(out.At(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(out.At(2, 3), 13.0);
}

TEST(BroadcastKernelTest, ColVectorAppliesPerRow) {
  Tile a(3, 4), vec(3, 1), out(3, 4);
  FillTile(&a, 10.0);
  for (int64_t r = 0; r < 3; ++r) vec.Set(r, 0, r + 1.0);
  ASSERT_TRUE(EwBroadcast(BinaryOp::kMul, a, vec, false, false, &out).ok());
  EXPECT_DOUBLE_EQ(out.At(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(out.At(2, 1), 30.0);
}

TEST(BroadcastKernelTest, SwappedReversesOperands) {
  Tile a(2, 2), vec(1, 2), out(2, 2);
  FillTile(&a, 3.0);
  FillTile(&vec, 10.0);
  ASSERT_TRUE(EwBroadcast(BinaryOp::kSub, a, vec, true, true, &out).ok());
  EXPECT_DOUBLE_EQ(out.At(1, 1), 7.0);  // vec - a
}

TEST(BroadcastKernelTest, RejectsWrongVectorShape) {
  Tile a(3, 4), bad(1, 3), out(3, 4);
  EXPECT_FALSE(EwBroadcast(BinaryOp::kAdd, a, bad, true, false, &out).ok());
  Tile bad2(4, 1);
  EXPECT_FALSE(EwBroadcast(BinaryOp::kAdd, a, bad2, false, false, &out).ok());
}

TEST(BroadcastKernelTest, AllowsAliasedOutput) {
  Tile a(2, 3), vec(1, 3);
  FillTile(&a, 5.0);
  FillTile(&vec, 2.0);
  ASSERT_TRUE(EwBroadcast(BinaryOp::kDiv, a, vec, true, false, &a).ok());
  EXPECT_DOUBLE_EQ(a.At(1, 2), 2.5);
}

// ---------------------------------------------------------------------------
// Job level: broadcast epilogues / chains
// ---------------------------------------------------------------------------

class BroadcastJobTest : public ::testing::Test {
 protected:
  BroadcastJobTest()
      : engine_(ClusterConfig{MachineProfile{}, 2, 2}, RealEngineOptions{}),
        executor_(&store_, &engine_, &cost_, ExecutorOptions{}) {}

  Rng rng_{81};
  InMemoryTileStore store_;
  TileOpCostModel cost_;
  RealEngine engine_;
  Executor executor_;
};

TEST_F(BroadcastJobTest, EwChainWithRowVectorOperand) {
  const int64_t rows = 24, cols = 16, tile = 8;
  TiledMatrix x{"X", TileLayout::Square(rows, cols, tile)};
  TiledMatrix mu{"mu", TileLayout(1, cols, 1, tile)};
  TiledMatrix out{"Y", TileLayout::Square(rows, cols, tile)};
  DenseMatrix dx = DenseMatrix::Gaussian(rows, cols, &rng_);
  DenseMatrix dmu = DenseMatrix::Gaussian(1, cols, &rng_);
  ASSERT_TRUE(StoreDense(dx, x, &store_).ok());
  ASSERT_TRUE(StoreDense(dmu, mu, &store_).ok());

  PhysicalPlan plan;
  ASSERT_TRUE(AddEwChain(x, out,
                         {EwStep::Binary(BinaryOp::kSub, "mu", false,
                                         EwStep::Operand::kRowVector)},
                         &plan).ok());
  ASSERT_TRUE(executor_.Run(plan).ok());

  auto loaded = LoadDense(out, &store_);
  ASSERT_TRUE(loaded.ok());
  auto expected = dx.Broadcast(BinaryOp::kSub, dmu, true);
  ASSERT_TRUE(expected.ok());
  auto diff = expected->MaxAbsDiff(*loaded);
  ASSERT_TRUE(diff.ok());
  EXPECT_LT(diff.value(), 1e-12);
}

TEST_F(BroadcastJobTest, MatMulEpilogueWithColVectorOperand) {
  const int64_t tile = 8;
  TiledMatrix a{"A", TileLayout::Square(16, 24, tile)};
  TiledMatrix b{"B", TileLayout::Square(24, 16, tile)};
  TiledMatrix scale{"s", TileLayout(16, 1, tile, 1)};
  TiledMatrix c{"C", TileLayout::Square(16, 16, tile)};
  DenseMatrix da = DenseMatrix::Gaussian(16, 24, &rng_);
  DenseMatrix db = DenseMatrix::Gaussian(24, 16, &rng_);
  DenseMatrix ds = DenseMatrix::Uniform(16, 1, &rng_, 0.5, 2.0);
  ASSERT_TRUE(StoreDense(da, a, &store_).ok());
  ASSERT_TRUE(StoreDense(db, b, &store_).ok());
  ASSERT_TRUE(StoreDense(ds, scale, &store_).ok());

  PhysicalPlan plan;
  ASSERT_TRUE(AddMatMul(a, b, c, MatMulParams{},
                        {EwStep::Binary(BinaryOp::kMul, "s", false,
                                        EwStep::Operand::kColVector)},
                        &plan).ok());
  ASSERT_TRUE(executor_.Run(plan).ok());

  auto loaded = LoadDense(c, &store_);
  ASSERT_TRUE(loaded.ok());
  auto expected = da.Multiply(db)->Broadcast(BinaryOp::kMul, ds, false);
  ASSERT_TRUE(expected.ok());
  auto diff = expected->MaxAbsDiff(*loaded);
  ASSERT_TRUE(diff.ok());
  EXPECT_LT(diff.value(), 1e-10);
}

TEST_F(BroadcastJobTest, BroadcastOperandCostIsVectorSized) {
  TiledMatrix x{"X", TileLayout::Square(64, 64, 16)};
  TiledMatrix out{"Y", TileLayout::Square(64, 64, 16)};
  EwChainJob full("full", x, out,
                  {EwStep::Binary(BinaryOp::kSub, "m")}, 1);
  EwChainJob broadcast("bcast", x, out,
                       {EwStep::Binary(BinaryOp::kSub, "mu", false,
                                       EwStep::Operand::kRowVector)},
                       1);
  BuildContext ctx{nullptr, &cost_, false};
  auto built_full = full.Build(ctx);
  auto built_bcast = broadcast.Build(ctx);
  ASSERT_TRUE(built_full.ok() && built_bcast.ok());
  int64_t full_read = 0, bcast_read = 0;
  for (const Task& t : built_full->spec.tasks) full_read += t.cost.bytes_read;
  for (const Task& t : built_bcast->spec.tasks) {
    bcast_read += t.cost.bytes_read;
  }
  EXPECT_LT(bcast_read, full_read);
}

// ---------------------------------------------------------------------------
// Language level: centering pipeline
// ---------------------------------------------------------------------------

TEST(BroadcastLangTest, ShapeInferenceAcceptsVectors) {
  auto x = Expr::Input("X", 10, 4);
  auto mu = Expr::Input("mu", 1, 4);
  auto centered = Expr::EwBinary(BinaryOp::kSub, x, mu);
  ASSERT_TRUE(centered.ok());
  EXPECT_EQ((*centered)->rows(), 10);
  EXPECT_EQ((*centered)->cols(), 4);
  auto v = Expr::Input("v", 10, 1);
  auto scaled = Expr::EwBinary(BinaryOp::kMul, v, x);  // vector on the left
  ASSERT_TRUE(scaled.ok());
  EXPECT_EQ((*scaled)->rows(), 10);
  EXPECT_EQ((*scaled)->cols(), 4);
  EXPECT_FALSE(Expr::EwBinary(BinaryOp::kAdd, x,
                              Expr::Input("w", 2, 4)).ok());
}

TEST(BroadcastLangTest, EndToEndColumnCentering) {
  InMemoryTileStore store;
  Rng rng(82);
  const int64_t rows = 32, cols = 16, tile = 8;
  TiledMatrix x{"X", TileLayout::Square(rows, cols, tile)};
  DenseMatrix dense = DenseMatrix::Gaussian(rows, cols, &rng);
  ASSERT_TRUE(StoreDense(dense, x, &store).ok());

  // mu = col_sums(X)/rows; Xc = X - mu (broadcast).
  Program p;
  auto ex = Expr::Input("X", rows, cols);
  p.Assign("mu", Scale(Expr::ColSums(ex), 1.0 / rows));
  p.Assign("Xc", ex - Expr::Input("mu", 1, cols));
  LoweringOptions lowering;
  lowering.tile_dim = tile;
  auto lowered = Lower(p, {{"X", x}}, lowering);
  ASSERT_TRUE(lowered.ok()) << lowered.status();

  RealEngine engine(ClusterConfig{MachineProfile{}, 2, 2},
                    RealEngineOptions{});
  TileOpCostModel cost;
  Executor executor(&store, &engine, &cost, ExecutorOptions{});
  ASSERT_TRUE(executor.Run(lowered->plan).ok());

  auto xc = LoadDense(lowered->outputs.at("Xc"), &store);
  ASSERT_TRUE(xc.ok());
  DenseMatrix mu = dense.ColSums().Unary(UnaryOp::kScale, 1.0 / rows);
  auto expected = dense.Broadcast(BinaryOp::kSub, mu, true);
  ASSERT_TRUE(expected.ok());
  auto diff = expected->MaxAbsDiff(*xc);
  ASSERT_TRUE(diff.ok());
  EXPECT_LT(diff.value(), 1e-10);
  // Column means of the centered matrix vanish.
  DenseMatrix centered_mu = xc->ColSums();
  for (int64_t c = 0; c < cols; ++c) {
    EXPECT_NEAR(centered_mu.At(0, c), 0.0, 1e-9);
  }
}

TEST(BroadcastLangTest, CseSharesRepeatedSubexpressions) {
  // W^T V feeds two multiplies; with CSE it is materialized once. The
  // transposes are read in place, so neither plan has a transpose job.
  struct JobCounts {
    int multiplies = 0;
    int transposes = 0;
  };
  auto count_jobs = [](bool cse) {
    Program p;
    auto w = Expr::Input("W", 16, 8);
    auto v = Expr::Input("V", 16, 16);
    p.Assign("N", (T(w) * v) * T(v));
    p.Assign("D", (T(w) * v) * w);
    std::map<std::string, TiledMatrix> bindings = {
        {"W", {"W", TileLayout::Square(16, 8, 8)}},
        {"V", {"V", TileLayout::Square(16, 16, 8)}},
    };
    LoweringOptions lowering;
    lowering.tile_dim = 8;
    lowering.enable_cse = cse;
    auto lowered = Lower(p, bindings, lowering);
    CUMULON_CHECK(lowered.ok()) << lowered.status();
    JobCounts counts;
    for (const auto& job : lowered->plan.jobs) {
      const std::string text = job->DebugString();
      if (text.rfind("MatMul", 0) == 0) ++counts.multiplies;
      if (text.rfind("Transpose", 0) == 0) ++counts.transposes;
    }
    return counts;
  };
  const JobCounts shared = count_jobs(true);
  const JobCounts unshared = count_jobs(false);
  EXPECT_EQ(shared.multiplies, 3);
  EXPECT_EQ(unshared.multiplies, 4);
  EXPECT_EQ(shared.transposes, 0);
  EXPECT_EQ(unshared.transposes, 0);
}

}  // namespace
}  // namespace cumulon
