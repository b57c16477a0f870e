#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/strings.h"
#include "matrix/dense_matrix.h"
#include "matrix/layout.h"
#include "matrix/tile.h"
#include "matrix/tile_ops.h"
#include "matrix/tile_store.h"
#include "matrix/tiled_matrix.h"

namespace cumulon {
namespace {

// ---------------------------------------------------------------------------
// Tile
// ---------------------------------------------------------------------------

TEST(TileTest, StartsZeroFilled) {
  Tile t(3, 4);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 4);
  EXPECT_EQ(t.size(), 12);
  for (int64_t r = 0; r < 3; ++r) {
    for (int64_t c = 0; c < 4; ++c) EXPECT_EQ(t.At(r, c), 0.0);
  }
}

TEST(TileTest, SetAndGetRoundTrip) {
  Tile t(2, 2);
  t.Set(0, 1, 3.5);
  t.Set(1, 0, -2.0);
  EXPECT_EQ(t.At(0, 1), 3.5);
  EXPECT_EQ(t.At(1, 0), -2.0);
}

TEST(TileTest, SizeBytesCountsHeaderAndPayload) {
  Tile t(10, 20);
  EXPECT_EQ(t.SizeBytes(), 16 + 10 * 20 * 8);
}

TEST(TileTest, RowMajorDataLayout) {
  Tile t(2, 3);
  t.Set(1, 2, 9.0);
  EXPECT_EQ(t.data()[1 * 3 + 2], 9.0);
}

// ---------------------------------------------------------------------------
// TileLayout
// ---------------------------------------------------------------------------

TEST(LayoutTest, ExactGrid) {
  TileLayout layout(100, 60, 50, 20);
  EXPECT_EQ(layout.grid_rows(), 2);
  EXPECT_EQ(layout.grid_cols(), 3);
  EXPECT_EQ(layout.num_tiles(), 6);
  EXPECT_EQ(layout.TileRowsAt(0), 50);
  EXPECT_EQ(layout.TileRowsAt(1), 50);
  EXPECT_EQ(layout.TileColsAt(2), 20);
}

TEST(LayoutTest, RaggedEdgeTiles) {
  TileLayout layout(105, 64, 50, 20);
  EXPECT_EQ(layout.grid_rows(), 3);
  EXPECT_EQ(layout.grid_cols(), 4);
  EXPECT_EQ(layout.TileRowsAt(2), 5);
  EXPECT_EQ(layout.TileColsAt(3), 4);
}

TEST(LayoutTest, TransposedSwapsEverything) {
  TileLayout layout(105, 64, 50, 20);
  TileLayout t = layout.Transposed();
  EXPECT_EQ(t.rows(), 64);
  EXPECT_EQ(t.cols(), 105);
  EXPECT_EQ(t.tile_rows(), 20);
  EXPECT_EQ(t.tile_cols(), 50);
  EXPECT_TRUE(t.Transposed() == layout);
}

TEST(LayoutTest, TotalBytesMatchesTileSum) {
  TileLayout layout(105, 64, 50, 20);
  int64_t sum = 0;
  for (int64_t r = 0; r < layout.grid_rows(); ++r) {
    for (int64_t c = 0; c < layout.grid_cols(); ++c) {
      sum += 16 + layout.TileRowsAt(r) * layout.TileColsAt(c) * 8;
    }
  }
  EXPECT_EQ(layout.TotalBytes(), sum);
}

TEST(LayoutTest, SquareFactory) {
  TileLayout layout = TileLayout::Square(100, 70, 32);
  EXPECT_EQ(layout.tile_rows(), 32);
  EXPECT_EQ(layout.tile_cols(), 32);
}

/// Property sweep: tile row/col counts always reconstruct the full matrix.
class LayoutPropertyTest
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>> {
};

TEST_P(LayoutPropertyTest, TileDimsPartitionMatrix) {
  const auto [rows, cols, tile] = GetParam();
  TileLayout layout = TileLayout::Square(rows, cols, tile);
  int64_t row_sum = 0;
  for (int64_t r = 0; r < layout.grid_rows(); ++r) {
    EXPECT_GT(layout.TileRowsAt(r), 0);
    EXPECT_LE(layout.TileRowsAt(r), tile);
    row_sum += layout.TileRowsAt(r);
  }
  EXPECT_EQ(row_sum, rows);
  int64_t col_sum = 0;
  for (int64_t c = 0; c < layout.grid_cols(); ++c) {
    col_sum += layout.TileColsAt(c);
  }
  EXPECT_EQ(col_sum, cols);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LayoutPropertyTest,
    ::testing::Values(std::make_tuple(1, 1, 16), std::make_tuple(16, 16, 16),
                      std::make_tuple(17, 15, 16), std::make_tuple(100, 3, 7),
                      std::make_tuple(3, 100, 7),
                      std::make_tuple(1000, 999, 64)));

// ---------------------------------------------------------------------------
// Tile kernels vs. reference DenseMatrix
// ---------------------------------------------------------------------------

Tile DenseToTile(const DenseMatrix& m) {
  Tile t(m.rows(), m.cols());
  for (int64_t r = 0; r < m.rows(); ++r) {
    for (int64_t c = 0; c < m.cols(); ++c) t.Set(r, c, m.At(r, c));
  }
  return t;
}

TEST(TileOpsTest, GemmMatchesReference) {
  Rng rng(1);
  DenseMatrix a = DenseMatrix::Gaussian(37, 23, &rng);
  DenseMatrix b = DenseMatrix::Gaussian(23, 41, &rng);
  auto expected = a.Multiply(b);
  ASSERT_TRUE(expected.ok());

  Tile ta = DenseToTile(a), tb = DenseToTile(b);
  Tile tc(37, 41);
  ASSERT_TRUE(Gemm(ta, tb, 1.0, 0.0, &tc).ok());
  for (int64_t r = 0; r < 37; ++r) {
    for (int64_t c = 0; c < 41; ++c) {
      EXPECT_NEAR(tc.At(r, c), expected->At(r, c), 1e-9);
    }
  }
}

TEST(TileOpsTest, GemmAlphaBetaSemantics) {
  Rng rng(2);
  DenseMatrix a = DenseMatrix::Gaussian(5, 6, &rng);
  DenseMatrix b = DenseMatrix::Gaussian(6, 4, &rng);
  Tile ta = DenseToTile(a), tb = DenseToTile(b);
  Tile tc(5, 4);
  FillTile(&tc, 2.0);
  // C = 3*A*B + 0.5*C
  ASSERT_TRUE(Gemm(ta, tb, 3.0, 0.5, &tc).ok());
  auto ab = a.Multiply(b);
  ASSERT_TRUE(ab.ok());
  for (int64_t r = 0; r < 5; ++r) {
    for (int64_t c = 0; c < 4; ++c) {
      EXPECT_NEAR(tc.At(r, c), 3.0 * ab->At(r, c) + 1.0, 1e-9);
    }
  }
}

TEST(TileOpsTest, GemmRejectsShapeMismatch) {
  Tile a(3, 4), b(5, 2), c(3, 2);
  EXPECT_EQ(Gemm(a, b, 1.0, 0.0, &c).code(), StatusCode::kInvalidArgument);
}

TEST(TileOpsTest, GemmLargerThanBlockSize) {
  // Exercise the cache-blocked path with dims > 64 and non-multiples.
  Rng rng(3);
  DenseMatrix a = DenseMatrix::Gaussian(130, 70, &rng);
  DenseMatrix b = DenseMatrix::Gaussian(70, 65, &rng);
  auto expected = a.Multiply(b);
  ASSERT_TRUE(expected.ok());
  Tile ta = DenseToTile(a), tb = DenseToTile(b), tc(130, 65);
  ASSERT_TRUE(Gemm(ta, tb, 1.0, 0.0, &tc).ok());
  double worst = 0;
  for (int64_t r = 0; r < 130; ++r) {
    for (int64_t c = 0; c < 65; ++c) {
      worst = std::max(worst, std::abs(tc.At(r, c) - expected->At(r, c)));
    }
  }
  EXPECT_LT(worst, 1e-9);
}

class BinaryOpTest : public ::testing::TestWithParam<BinaryOp> {};

TEST_P(BinaryOpTest, MatchesScalarSemantics) {
  const BinaryOp op = GetParam();
  Rng rng(4);
  Tile a(9, 7), b(9, 7), out(9, 7);
  FillGaussian(&a, &rng);
  FillUniform(&b, &rng, 0.5, 2.0);  // avoid division by ~0
  ASSERT_TRUE(EwBinary(op, a, b, &out).ok());
  for (int64_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(out.data()[i], ApplyBinary(op, a.data()[i], b.data()[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, BinaryOpTest,
                         ::testing::Values(BinaryOp::kAdd, BinaryOp::kSub,
                                           BinaryOp::kMul, BinaryOp::kDiv,
                                           BinaryOp::kMax, BinaryOp::kMin));

class UnaryOpTest : public ::testing::TestWithParam<UnaryOp> {};

TEST_P(UnaryOpTest, MatchesScalarSemantics) {
  const UnaryOp op = GetParam();
  Rng rng(5);
  Tile a(6, 8), out(6, 8);
  FillUniform(&a, &rng, 0.1, 3.0);  // positive domain for log/sqrt
  const double scalar = 1.7;
  ASSERT_TRUE(EwUnary(op, a, scalar, &out).ok());
  for (int64_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(out.data()[i], ApplyUnary(op, a.data()[i], scalar));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, UnaryOpTest,
    ::testing::Values(UnaryOp::kScale, UnaryOp::kAddScalar, UnaryOp::kPow,
                      UnaryOp::kExp, UnaryOp::kLog, UnaryOp::kAbs,
                      UnaryOp::kSqrt, UnaryOp::kSigmoid, UnaryOp::kRecip));

TEST(TileOpsTest, EwBinaryRejectsShapeMismatch) {
  Tile a(2, 3), b(3, 2), out(2, 3);
  EXPECT_FALSE(EwBinary(BinaryOp::kAdd, a, b, &out).ok());
}

TEST(TileOpsTest, EwBinaryAllowsAliasedOutput) {
  Tile a(4, 4), b(4, 4);
  FillTile(&a, 2.0);
  FillTile(&b, 3.0);
  ASSERT_TRUE(EwBinary(BinaryOp::kMul, a, b, &a).ok());
  EXPECT_EQ(a.At(0, 0), 6.0);
  EXPECT_EQ(a.At(3, 3), 6.0);
}

TEST(TileOpsTest, TransposeMatchesReference) {
  Rng rng(6);
  Tile a(70, 90), out(90, 70);
  FillGaussian(&a, &rng);
  ASSERT_TRUE(TransposeTile(a, &out).ok());
  for (int64_t r = 0; r < 70; ++r) {
    for (int64_t c = 0; c < 90; ++c) {
      EXPECT_EQ(out.At(c, r), a.At(r, c));
    }
  }
}

TEST(TileOpsTest, TransposeRejectsWrongOutputShape) {
  Tile a(3, 4), out(3, 4);
  EXPECT_FALSE(TransposeTile(a, &out).ok());
}

TEST(TileOpsTest, AccumulateAdds) {
  Tile x(3, 3), acc(3, 3);
  FillTile(&x, 1.5);
  FillTile(&acc, 1.0);
  ASSERT_TRUE(AccumulateInto(x, &acc).ok());
  ASSERT_TRUE(AccumulateInto(x, &acc).ok());
  EXPECT_DOUBLE_EQ(acc.At(1, 1), 4.0);
}

TEST(TileOpsTest, SumAndNorm) {
  Tile t(2, 2);
  t.Set(0, 0, 3.0);
  t.Set(1, 1, -4.0);
  EXPECT_DOUBLE_EQ(TileSum(t), -1.0);
  EXPECT_DOUBLE_EQ(FrobeniusNorm(t), 5.0);
}

TEST(TileOpsTest, MaxAbsDiffDetectsDifference) {
  Tile a(2, 2), b(2, 2);
  b.Set(1, 0, 0.25);
  auto d = MaxAbsDiff(a, b);
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d.value(), 0.25);
  Tile c(3, 2);
  EXPECT_FALSE(MaxAbsDiff(a, c).ok());
}

TEST(TileOpsTest, FillsAreDeterministicPerSeed) {
  Rng r1(99), r2(99);
  Tile a(5, 5), b(5, 5);
  FillGaussian(&a, &r1);
  FillGaussian(&b, &r2);
  auto d = MaxAbsDiff(a, b);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value(), 0.0);
}

// ---------------------------------------------------------------------------
// DenseMatrix
// ---------------------------------------------------------------------------

TEST(DenseMatrixTest, IdentityMultiplyIsNoOp) {
  Rng rng(7);
  DenseMatrix a = DenseMatrix::Gaussian(8, 8, &rng);
  auto prod = a.Multiply(DenseMatrix::Identity(8));
  ASSERT_TRUE(prod.ok());
  auto diff = a.MaxAbsDiff(*prod);
  ASSERT_TRUE(diff.ok());
  EXPECT_LT(diff.value(), 1e-12);
}

TEST(DenseMatrixTest, TransposeTwiceIsIdentity) {
  Rng rng(8);
  DenseMatrix a = DenseMatrix::Gaussian(5, 9, &rng);
  auto diff = a.MaxAbsDiff(a.Transpose().Transpose());
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff.value(), 0.0);
}

TEST(DenseMatrixTest, MultiplyAssociatesWithinTolerance) {
  Rng rng(9);
  DenseMatrix a = DenseMatrix::Gaussian(6, 7, &rng);
  DenseMatrix b = DenseMatrix::Gaussian(7, 5, &rng);
  DenseMatrix c = DenseMatrix::Gaussian(5, 4, &rng);
  auto left = a.Multiply(*b.Multiply(c));
  auto right = a.Multiply(b)->Multiply(c);
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(right.ok());
  auto diff = left->MaxAbsDiff(*right);
  ASSERT_TRUE(diff.ok());
  EXPECT_LT(diff.value(), 1e-9);
}

TEST(DenseMatrixTest, MultiplyRejectsBadShapes) {
  DenseMatrix a(2, 3), b(4, 2);
  EXPECT_FALSE(a.Multiply(b).ok());
}

TEST(DenseMatrixTest, ConstantAndUnary) {
  DenseMatrix a = DenseMatrix::Constant(3, 3, 4.0);
  DenseMatrix s = a.Unary(UnaryOp::kSqrt);
  EXPECT_DOUBLE_EQ(s.At(2, 2), 2.0);
}

// ---------------------------------------------------------------------------
// InMemoryTileStore & tiled matrix round trips
// ---------------------------------------------------------------------------

TEST(TileStoreTest, PutGetRoundTrip) {
  InMemoryTileStore store;
  auto tile = std::make_shared<Tile>(2, 2);
  tile->Set(0, 0, 42.0);
  ASSERT_TRUE(store.Put("m", TileId{0, 0}, tile, -1).ok());
  auto got = store.Get("m", TileId{0, 0}, -1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->At(0, 0), 42.0);
}

TEST(TileStoreTest, GetMissingTileIsNotFound) {
  InMemoryTileStore store;
  EXPECT_EQ(store.Get("m", TileId{0, 0}, -1).status().code(),
            StatusCode::kNotFound);
}

TEST(TileStoreTest, DeleteMatrixRemovesOnlyThatMatrix) {
  InMemoryTileStore store;
  auto tile = std::make_shared<Tile>(1, 1);
  ASSERT_TRUE(store.Put("a", TileId{0, 0}, tile, -1).ok());
  ASSERT_TRUE(store.Put("a", TileId{0, 1}, tile, -1).ok());
  ASSERT_TRUE(store.Put("b", TileId{0, 0}, tile, -1).ok());
  ASSERT_TRUE(store.DeleteMatrix("a").ok());
  EXPECT_FALSE(store.Get("a", TileId{0, 0}, -1).ok());
  EXPECT_TRUE(store.Get("b", TileId{0, 0}, -1).ok());
  EXPECT_EQ(store.NumTiles(), 1);
}

TEST(TileStoreTest, PutOverwrites) {
  InMemoryTileStore store;
  auto t1 = std::make_shared<Tile>(1, 1);
  t1->Set(0, 0, 1.0);
  auto t2 = std::make_shared<Tile>(1, 1);
  t2->Set(0, 0, 2.0);
  ASSERT_TRUE(store.Put("m", TileId{0, 0}, t1, -1).ok());
  ASSERT_TRUE(store.Put("m", TileId{0, 0}, t2, -1).ok());
  auto got = store.Get("m", TileId{0, 0}, -1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->At(0, 0), 2.0);
}

TEST(TiledMatrixTest, StoreLoadDenseRoundTrip) {
  Rng rng(10);
  DenseMatrix dense = DenseMatrix::Gaussian(45, 33, &rng);
  InMemoryTileStore store;
  TiledMatrix m{"m", TileLayout::Square(45, 33, 16)};
  ASSERT_TRUE(StoreDense(dense, m, &store).ok());
  auto loaded = LoadDense(m, &store);
  ASSERT_TRUE(loaded.ok());
  auto diff = dense.MaxAbsDiff(*loaded);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff.value(), 0.0);
}

TEST(TiledMatrixTest, StoreDenseRejectsWrongShape) {
  InMemoryTileStore store;
  DenseMatrix dense(4, 4);
  TiledMatrix m{"m", TileLayout::Square(5, 4, 2)};
  EXPECT_FALSE(StoreDense(dense, m, &store).ok());
}

TEST(TiledMatrixTest, GenerateGaussianCoversAllTiles) {
  InMemoryTileStore store;
  TiledMatrix m{"g", TileLayout::Square(33, 20, 8)};
  Rng rng(11);
  ASSERT_TRUE(GenerateMatrix(m, FillKind::kGaussian, 0.0, &rng, &store).ok());
  EXPECT_EQ(store.NumTiles(), m.layout.num_tiles());
  auto dense = LoadDense(m, &store);
  ASSERT_TRUE(dense.ok());
  EXPECT_GT(dense->FrobeniusNorm(), 0.0);
}

TEST(TiledMatrixTest, GenerateConstant) {
  InMemoryTileStore store;
  TiledMatrix m{"c", TileLayout::Square(10, 10, 4)};
  ASSERT_TRUE(GenerateMatrix(m, FillKind::kConstant, 2.5, nullptr,
                             &store).ok());
  auto dense = LoadDense(m, &store);
  ASSERT_TRUE(dense.ok());
  EXPECT_DOUBLE_EQ(dense->At(9, 9), 2.5);
}

TEST(TiledMatrixTest, GenerateRandomNeedsRng) {
  InMemoryTileStore store;
  TiledMatrix m{"g", TileLayout::Square(4, 4, 2)};
  EXPECT_FALSE(GenerateMatrix(m, FillKind::kUniform, 0.0, nullptr,
                              &store).ok());
}

TEST(TiledMatrixTest, TiledMaxAbsDiffSeesPerTileDifferences) {
  InMemoryTileStore store;
  TiledMatrix a{"a", TileLayout::Square(8, 8, 4)};
  TiledMatrix b{"b", TileLayout::Square(8, 8, 4)};
  ASSERT_TRUE(GenerateMatrix(a, FillKind::kConstant, 1.0, nullptr,
                             &store).ok());
  ASSERT_TRUE(GenerateMatrix(b, FillKind::kConstant, 1.0, nullptr,
                             &store).ok());
  auto d0 = TiledMaxAbsDiff(a, b, &store);
  ASSERT_TRUE(d0.ok());
  EXPECT_EQ(d0.value(), 0.0);
  auto tile = std::make_shared<Tile>(4, 4);
  tile->Set(2, 2, 9.0);  // differs from constant 1.0 by 8 at this entry
  ASSERT_TRUE(store.Put("b", TileId{1, 1}, tile, -1).ok());
  auto d1 = TiledMaxAbsDiff(a, b, &store);
  ASSERT_TRUE(d1.ok());
  EXPECT_DOUBLE_EQ(d1.value(), 8.0);
}

// ---------------------------------------------------------------------------
// GenerateMatrix
// ---------------------------------------------------------------------------

/// An in-memory store that records the order of its Puts.
class PutOrderStore : public InMemoryTileStore {
 public:
  Status Put(const std::string& matrix, TileId id,
             std::shared_ptr<const Tile> tile, int writer_node) override {
    puts.push_back(id);
    return InMemoryTileStore::Put(matrix, id, std::move(tile), writer_node);
  }

  std::vector<TileId> puts;
};

// GenerateMatrix(kGaussian) runs Box-Muller on several threads but must
// give what a sequential fill gives: each element the next NextGaussian()
// of an Rng with the same seed, tiles Put in grid order, and the Rng left
// where the sequential fill leaves it. Tiles with odd element counts
// (31 x 33 at 7, and the one-tile 5 x 9) end inside a Box-Muller pair, and
// the draw between matrices changes which half of a pair each one starts
// on.
TEST(GenerateMatrixTest, GaussianMatchesSequentialNextGaussian) {
  struct Shape {
    int64_t rows, cols, tile;
  };
  const Shape shapes[] = {{1000, 700, 256}, {513, 77, 128}, {31, 33, 7},
                          {1, 1, 1},        {5, 9, 16},     {4096, 64, 512}};
  for (const uint64_t seed : {uint64_t{1}, uint64_t{29}, uint64_t{2013}}) {
    Rng rng(seed);
    Rng reference(seed);
    PutOrderStore store;
    for (const Shape& shape : shapes) {
      const TiledMatrix m{
          StrCat("g", shape.rows, "x", shape.cols),
          TileLayout::Square(shape.rows, shape.cols, shape.tile)};
      SCOPED_TRACE(StrCat("seed ", seed, ", ", m.layout.ToString()));
      store.puts.clear();
      ASSERT_TRUE(
          GenerateMatrix(m, FillKind::kGaussian, 0.0, &rng, &store).ok());
      std::vector<TileId> grid_order;
      for (int64_t gr = 0; gr < m.layout.grid_rows(); ++gr) {
        for (int64_t gc = 0; gc < m.layout.grid_cols(); ++gc) {
          grid_order.push_back(TileId{gr, gc});
        }
      }
      ASSERT_EQ(store.puts, grid_order);
      for (const TileId& id : grid_order) {
        auto tile = store.Get(m.name, id, -1);
        ASSERT_TRUE(tile.ok());
        for (int64_t i = 0; i < (*tile)->size(); ++i) {
          ASSERT_EQ((*tile)->data()[i], reference.NextGaussian())
              << "tile (" << id.row << ", " << id.col << "), element " << i;
        }
      }
      ASSERT_EQ(rng.NextGaussian(), reference.NextGaussian());
    }
    EXPECT_EQ(rng.NextUint64(), reference.NextUint64());
  }
}

}  // namespace
}  // namespace cumulon
