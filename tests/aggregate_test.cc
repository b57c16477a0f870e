#include <map>
#include <tuple>

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
// Tile-level kernels
// ---------------------------------------------------------------------------

TEST(AggKernelTest, RowSumsIntoAccumulates) {
  Tile t(3, 4);
  FillTile(&t, 1.0);
  Tile acc(3, 1);
  ASSERT_TRUE(RowSumsInto(t, &acc).ok());
  ASSERT_TRUE(RowSumsInto(t, &acc).ok());
  EXPECT_DOUBLE_EQ(acc.At(0, 0), 8.0);
  EXPECT_DOUBLE_EQ(acc.At(2, 0), 8.0);
}

TEST(AggKernelTest, ColSumsIntoAccumulates) {
  Tile t(3, 4);
  t.Set(0, 1, 2.0);
  t.Set(2, 1, 3.0);
  Tile acc(1, 4);
  ASSERT_TRUE(ColSumsInto(t, &acc).ok());
  EXPECT_DOUBLE_EQ(acc.At(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(acc.At(0, 0), 0.0);
}

TEST(AggKernelTest, RejectsWrongAccumulatorShape) {
  Tile t(3, 4);
  Tile bad(4, 1);
  EXPECT_FALSE(RowSumsInto(t, &bad).ok());
  Tile bad2(1, 3);
  EXPECT_FALSE(ColSumsInto(t, &bad2).ok());
}

TEST(AggKernelTest, MatchesDenseReference) {
  Rng rng(31);
  DenseMatrix dense = DenseMatrix::Gaussian(7, 9, &rng);
  Tile t(7, 9);
  for (int64_t r = 0; r < 7; ++r) {
    for (int64_t c = 0; c < 9; ++c) t.Set(r, c, dense.At(r, c));
  }
  Tile rows(7, 1), cols(1, 9);
  ASSERT_TRUE(RowSumsInto(t, &rows).ok());
  ASSERT_TRUE(ColSumsInto(t, &cols).ok());
  DenseMatrix expected_rows = dense.RowSums();
  DenseMatrix expected_cols = dense.ColSums();
  for (int64_t r = 0; r < 7; ++r) {
    EXPECT_NEAR(rows.At(r, 0), expected_rows.At(r, 0), 1e-12);
  }
  for (int64_t c = 0; c < 9; ++c) {
    EXPECT_NEAR(cols.At(0, c), expected_cols.At(0, c), 1e-12);
  }
}

TEST(DenseAggTest, TotalMatchesSumOfRowSums) {
  Rng rng(32);
  DenseMatrix dense = DenseMatrix::Gaussian(11, 5, &rng);
  double total = 0.0;
  DenseMatrix rows = dense.RowSums();
  for (int64_t r = 0; r < rows.rows(); ++r) total += rows.At(r, 0);
  EXPECT_NEAR(dense.Total(), total, 1e-10);
}

// ---------------------------------------------------------------------------
// AggregateJob
// ---------------------------------------------------------------------------

class AggregateJobTest : public ::testing::Test {
 protected:
  AggregateJobTest()
      : engine_(ClusterConfig{MachineProfile{}, 2, 2}, RealEngineOptions{}),
        executor_(&store_, &engine_, &cost_, ExecutorOptions{}) {}

  Rng rng_{33};
  InMemoryTileStore store_;
  TileOpCostModel cost_;
  RealEngine engine_;
  Executor executor_;
};

TEST_F(AggregateJobTest, AggOutputLayoutShapes) {
  TileLayout in(100, 60, 16, 8);
  TileLayout rows = AggOutputLayout(in, AggKind::kRowSums);
  EXPECT_EQ(rows.rows(), 100);
  EXPECT_EQ(rows.cols(), 1);
  EXPECT_EQ(rows.tile_rows(), 16);
  EXPECT_EQ(rows.grid_rows(), in.grid_rows());
  TileLayout cols = AggOutputLayout(in, AggKind::kColSums);
  EXPECT_EQ(cols.rows(), 1);
  EXPECT_EQ(cols.cols(), 60);
  EXPECT_EQ(cols.grid_cols(), in.grid_cols());
}

/// Parameterized over (rows, cols, tile, stripes_per_task, kind).
class AggregateParamTest
    : public AggregateJobTest,
      public ::testing::WithParamInterface<
          std::tuple<int64_t, int64_t, int64_t, int64_t, AggKind>> {};

TEST_P(AggregateParamTest, MatchesDenseReference) {
  const auto [rows, cols, tile, stripes, kind] = GetParam();
  TiledMatrix in{"X", TileLayout::Square(rows, cols, tile)};
  DenseMatrix dense = DenseMatrix::Gaussian(rows, cols, &rng_);
  ASSERT_TRUE(StoreDense(dense, in, &store_).ok());
  TiledMatrix out{"S", AggOutputLayout(in.layout, kind)};
  PhysicalPlan plan;
  ASSERT_TRUE(AddAggregate(in, out, kind, {}, &plan, stripes).ok());
  ASSERT_TRUE(executor_.Run(plan).ok());
  auto loaded = LoadDense(out, &store_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  DenseMatrix expected =
      kind == AggKind::kRowSums ? dense.RowSums() : dense.ColSums();
  auto diff = expected.MaxAbsDiff(*loaded);
  ASSERT_TRUE(diff.ok());
  EXPECT_LT(diff.value(), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AggregateParamTest,
    ::testing::Combine(::testing::Values(16, 40), ::testing::Values(16, 24),
                       ::testing::Values(8, 16), ::testing::Values(1, 3),
                       ::testing::Values(AggKind::kRowSums,
                                         AggKind::kColSums)));

TEST_F(AggregateJobTest, EpilogueTurnsSumsIntoMeans) {
  const int64_t rows = 24, cols = 16;
  TiledMatrix in{"X", TileLayout::Square(rows, cols, 8)};
  DenseMatrix dense = DenseMatrix::Gaussian(rows, cols, &rng_);
  ASSERT_TRUE(StoreDense(dense, in, &store_).ok());
  TiledMatrix out{"M", AggOutputLayout(in.layout, AggKind::kRowSums)};
  PhysicalPlan plan;
  ASSERT_TRUE(AddAggregate(in, out, AggKind::kRowSums,
                           {EwStep::Unary(UnaryOp::kScale, 1.0 / cols)},
                           &plan).ok());
  ASSERT_TRUE(executor_.Run(plan).ok());
  auto loaded = LoadDense(out, &store_);
  ASSERT_TRUE(loaded.ok());
  DenseMatrix expected = dense.RowSums().Unary(UnaryOp::kScale, 1.0 / cols);
  auto diff = expected.MaxAbsDiff(*loaded);
  ASSERT_TRUE(diff.ok());
  EXPECT_LT(diff.value(), 1e-12);
}

TEST_F(AggregateJobTest, RejectsWrongOutputLayout) {
  TiledMatrix in{"X", TileLayout::Square(16, 16, 8)};
  TiledMatrix out{"S", TileLayout::Square(16, 1, 8)};  // tile_cols 8, not 1
  PhysicalPlan plan;
  ASSERT_TRUE(AddAggregate(in, out, AggKind::kRowSums, {}, &plan).ok());
  EXPECT_FALSE(executor_.Run(plan).ok());
}

TEST_F(AggregateJobTest, DeclaredCostCoversAllInputBytes) {
  TiledMatrix in{"X", TileLayout::Square(64, 64, 16)};
  TiledMatrix out{"S", AggOutputLayout(in.layout, AggKind::kColSums)};
  AggregateJob job("agg", in, out, AggKind::kColSums, {}, 2);
  TileOpCostModel cost;
  BuildContext ctx{nullptr, &cost, false};
  auto built = job.Build(ctx);
  ASSERT_TRUE(built.ok()) << built.status();
  int64_t read = 0;
  for (const Task& t : built->spec.tasks) read += t.cost.bytes_read;
  EXPECT_EQ(read, in.layout.TotalBytes());
  EXPECT_EQ(built->spec.tasks.size(), 2u);  // 4 stripes / 2 per task
}

// ---------------------------------------------------------------------------
// Language integration
// ---------------------------------------------------------------------------

TEST(AggLangTest, RowColSumAllShapesAndDebugStrings) {
  auto a = Expr::Input("A", 10, 4);
  auto rows = Expr::RowSums(a);
  EXPECT_EQ(rows->rows(), 10);
  EXPECT_EQ(rows->cols(), 1);
  auto cols = Expr::ColSums(a);
  EXPECT_EQ(cols->rows(), 1);
  EXPECT_EQ(cols->cols(), 4);
  auto total = Expr::SumAll(a);
  EXPECT_EQ(total->rows(), 1);
  EXPECT_EQ(total->cols(), 1);
  EXPECT_EQ(rows->DebugString(), "row_sums(A)");
  EXPECT_EQ(total->DebugString(), "col_sums(row_sums(A))");
}

TEST(AggLangTest, EndToEndColumnMeans) {
  InMemoryTileStore store;
  Rng rng(34);
  const int64_t rows = 32, cols = 24, tile = 8;
  TiledMatrix x{"X", TileLayout::Square(rows, cols, tile)};
  DenseMatrix dense = DenseMatrix::Gaussian(rows, cols, &rng);
  ASSERT_TRUE(StoreDense(dense, x, &store).ok());

  Program p;
  p.Assign("mu", Scale(Expr::ColSums(Expr::Input("X", rows, cols)),
                       1.0 / rows));
  LoweringOptions lowering;
  lowering.tile_dim = tile;
  auto lowered = Lower(p, {{"X", x}}, lowering);
  ASSERT_TRUE(lowered.ok()) << lowered.status();

  RealEngine engine(ClusterConfig{MachineProfile{}, 2, 2},
                    RealEngineOptions{});
  TileOpCostModel cost;
  Executor executor(&store, &engine, &cost, ExecutorOptions{});
  ASSERT_TRUE(executor.Run(lowered->plan).ok());

  auto mu = LoadDense(lowered->outputs.at("mu"), &store);
  ASSERT_TRUE(mu.ok());
  DenseMatrix expected = dense.ColSums().Unary(UnaryOp::kScale, 1.0 / rows);
  auto diff = expected.MaxAbsDiff(*mu);
  ASSERT_TRUE(diff.ok());
  EXPECT_LT(diff.value(), 1e-10);
}

TEST(AggLangTest, EndToEndSumAllMatchesTotal) {
  InMemoryTileStore store;
  Rng rng(35);
  const int64_t rows = 40, cols = 16, tile = 16;
  TiledMatrix x{"X", TileLayout::Square(rows, cols, tile)};
  DenseMatrix dense = DenseMatrix::Gaussian(rows, cols, &rng);
  ASSERT_TRUE(StoreDense(dense, x, &store).ok());

  Program p;
  p.Assign("s", Expr::SumAll(Expr::Input("X", rows, cols)));
  LoweringOptions lowering;
  lowering.tile_dim = tile;
  auto lowered = Lower(p, {{"X", x}}, lowering);
  ASSERT_TRUE(lowered.ok()) << lowered.status();

  RealEngine engine(ClusterConfig{MachineProfile{}, 1, 2},
                    RealEngineOptions{});
  TileOpCostModel cost;
  Executor executor(&store, &engine, &cost, ExecutorOptions{});
  ASSERT_TRUE(executor.Run(lowered->plan).ok());

  auto s = LoadDense(lowered->outputs.at("s"), &store);
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s->At(0, 0), dense.Total(), 1e-9);
}

}  // namespace
}  // namespace cumulon
