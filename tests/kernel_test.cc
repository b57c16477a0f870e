#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/aligned_buffer.h"
#include "common/rng.h"
#include "matrix/gemm_packed.h"
#include "matrix/kernel_config.h"
#include "matrix/tile.h"
#include "matrix/tile_ops.h"

namespace cumulon {
namespace {

// Worst acceptable relative difference between the packed FMA kernel and
// the scalar oracle. Both accumulate each C element's k terms in ascending
// order; FMA only fuses the multiply-add rounding, so per-term error is
// bounded by one ulp of the product — measured worst case on this suite is
// below 1e-16.
constexpr double kFmaRelTol = 1e-13;

Tile RandomTile(int64_t rows, int64_t cols, Rng* rng) {
  Tile t(rows, cols);
  FillGaussian(&t, rng);
  return t;
}

/// max |a-b| / max(1, |a|) over all elements; asserts equal shapes.
double MaxRelDiff(const Tile& a, const Tile& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double worst = 0.0;
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t c = 0; c < a.cols(); ++c) {
      const double denom = std::max(1.0, std::abs(a.At(r, c)));
      worst = std::max(worst, std::abs(a.At(r, c) - b.At(r, c)) / denom);
    }
  }
  return worst;
}

void ExpectBitIdentical(const Tile& a, const Tile& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t c = 0; c < a.cols(); ++c) {
      // EXPECT_EQ on doubles is exact — that is the point of the oracle
      // contract for the non-FMA kernels.
      EXPECT_EQ(a.At(r, c), b.At(r, c)) << "at (" << r << "," << c << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// Aligned tile memory
// ---------------------------------------------------------------------------

TEST(AlignedBufferTest, AlignUpAndFootprint) {
  EXPECT_EQ(AlignUp(0, 64), 0);
  EXPECT_EQ(AlignUp(1, 64), 64);
  EXPECT_EQ(AlignUp(64, 64), 64);
  EXPECT_EQ(AlignUp(65, 64), 128);
  EXPECT_EQ(AlignedFootprintBytes(128), 128);
  EXPECT_EQ(AlignedFootprintBytes(129), 192);
}

TEST(AlignedBufferTest, TileDataIsCacheLineAligned) {
  for (int64_t rows : {1, 3, 7, 64}) {
    Tile t(rows, rows);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(t.data()) % kCacheLineBytes, 0u)
        << rows << "x" << rows;
  }
}

TEST(AlignedBufferTest, TileMemoryBytesIsPaddedFootprint) {
  Tile t(4, 4);                        // 128-byte payload: already aligned
  EXPECT_EQ(t.MemoryBytes(), 128);
  EXPECT_EQ(t.SizeBytes(), 144);       // serialized adds the 16-byte header
  Tile odd(3, 3);                      // 72 bytes -> one extra line
  EXPECT_EQ(odd.MemoryBytes(), 128);
}

// ---------------------------------------------------------------------------
// Kernel dispatch
// ---------------------------------------------------------------------------

TEST(KernelConfigTest, ResolveKernelModePureCases) {
  // kScalar is always honored.
  EXPECT_EQ(ResolveKernelModeWith(KernelMode::kScalar, true, nullptr),
            KernelMode::kScalar);
  // kAuto / kSimd follow CPU capability.
  EXPECT_EQ(ResolveKernelModeWith(KernelMode::kAuto, true, nullptr),
            KernelMode::kSimd);
  EXPECT_EQ(ResolveKernelModeWith(KernelMode::kAuto, false, nullptr),
            KernelMode::kScalar);
  EXPECT_EQ(ResolveKernelModeWith(KernelMode::kSimd, false, nullptr),
            KernelMode::kScalar);
  // CUMULON_KERNEL=scalar emulates a no-AVX2 machine even for kSimd asks.
  EXPECT_EQ(ResolveKernelModeWith(KernelMode::kSimd, true, "scalar"),
            KernelMode::kScalar);
  EXPECT_EQ(ResolveKernelModeWith(KernelMode::kAuto, true, "scalar"),
            KernelMode::kScalar);
  // Other env values leave dispatch to capability.
  EXPECT_EQ(ResolveKernelModeWith(KernelMode::kAuto, true, "auto"),
            KernelMode::kSimd);
}

TEST(KernelConfigTest, ParseKernelMode) {
  KernelMode mode = KernelMode::kAuto;
  EXPECT_TRUE(ParseKernelMode("scalar", &mode));
  EXPECT_EQ(mode, KernelMode::kScalar);
  EXPECT_TRUE(ParseKernelMode("simd", &mode));
  EXPECT_EQ(mode, KernelMode::kSimd);
  EXPECT_TRUE(ParseKernelMode("auto", &mode));
  EXPECT_EQ(mode, KernelMode::kAuto);
  EXPECT_FALSE(ParseKernelMode("avx512", &mode));
  EXPECT_EQ(mode, KernelMode::kAuto) << "failed parse must not clobber";
}

TEST(KernelConfigTest, FromCacheSizesDerivesSaneBlocking) {
  // This machine's caches (48 KiB L1d, 2 MiB L2) and the fallback sizes.
  for (auto [l1, l2] : std::vector<std::pair<int64_t, int64_t>>{
           {48 * 1024, 2 * 1024 * 1024}, {0, 0}, {16 * 1024, 256 * 1024}}) {
    const KernelConfig cfg = KernelConfig::FromCacheSizes(l1, l2);
    EXPECT_GE(cfg.cache_block, 16);
    EXPECT_LE(cfg.cache_block, 256);
    EXPECT_EQ(cfg.cache_block & (cfg.cache_block - 1), 0)
        << "cache_block must be a power of two";
    EXPECT_EQ(cfg.pack_nc % kernel_internal::kAvx512Nr, 0)
        << "pack_nc must hold whole register tiles of either width";
    EXPECT_GE(cfg.pack_nc, kernel_internal::kAvx512Nr);
    EXPECT_GE(cfg.pack_kc, 64);
    EXPECT_LE(cfg.pack_kc, 512);
  }
}

// ---------------------------------------------------------------------------
// Gemm: SIMD vs scalar oracle
// ---------------------------------------------------------------------------

struct GemmShape {
  int64_t m, k, n;
};

/// Edge shapes: register-tile edges of both widths on every side (m % 6,
/// m % 8, n % 8, n % 16, lone rows/cols), degenerate dims of 1, k crossing
/// the pack_kc boundary, and blocked interior shapes.
const GemmShape kEdgeShapes[] = {
    {1, 1, 1},    {1, 7, 5},     {6, 8, 8},       {7, 9, 13},
    {13, 1, 6},   {5, 300, 9},   {65, 130, 47},   {128, 128, 128},
    {100, 700, 3}, {6, 6, 8},    {12, 16, 16},    {1, 513, 1},
    {9, 17, 17},  {15, 300, 31}, {8, 1, 16},
};

/// The products the benchmark's real workloads run, as m x k x n of
/// op(A) * op(B): rsvd-io's X*V and X^T*U (512x512 * 512x64), gnmf-io's
/// W^T*V (32x256 * 256x256) and V*H^T (256x256 * 256x32). The width tests
/// run them in every orientation pair.
const GemmShape kWorkloadShapes[] = {
    {512, 512, 64}, {32, 256, 256}, {256, 256, 32},
};

TEST(GemmKernelTest, SimdMatchesOracleOnEdgeShapes) {
  Rng rng(7);
  for (const GemmShape& s : kEdgeShapes) {
    for (double alpha : {1.0, 0.5}) {
      for (double beta : {0.0, 1.0, 2.0}) {
        Tile a = RandomTile(s.m, s.k, &rng);
        Tile b = RandomTile(s.k, s.n, &rng);
        Tile c0 = RandomTile(s.m, s.n, &rng);
        Tile c_scalar = c0;
        Tile c_simd = c0;
        ASSERT_TRUE(GemmWithMode(KernelMode::kScalar, a, b, alpha, beta,
                                 &c_scalar)
                        .ok());
        ASSERT_TRUE(
            GemmWithMode(KernelMode::kSimd, a, b, alpha, beta, &c_simd).ok());
        EXPECT_LE(MaxRelDiff(c_scalar, c_simd), kFmaRelTol)
            << s.m << "x" << s.k << "x" << s.n << " alpha=" << alpha
            << " beta=" << beta;
      }
    }
  }
}

TEST(GemmKernelTest, BetaZeroOverwritesPoisonedOutput) {
  // beta == 0 must *assign*, never read the destination: NaN garbage in C
  // has to disappear in both kernels.
  Rng rng(11);
  for (KernelMode mode : {KernelMode::kScalar, KernelMode::kSimd}) {
    Tile a = RandomTile(7, 9, &rng);
    Tile b = RandomTile(9, 13, &rng);
    Tile c(7, 13);
    FillTile(&c, std::numeric_limits<double>::quiet_NaN());
    ASSERT_TRUE(GemmWithMode(mode, a, b, 1.0, 0.0, &c).ok());
    for (int64_t r = 0; r < c.rows(); ++r) {
      for (int64_t col = 0; col < c.cols(); ++col) {
        EXPECT_FALSE(std::isnan(c.At(r, col)))
            << KernelModeName(mode) << " at (" << r << "," << col << ")";
      }
    }
  }
}

TEST(GemmKernelTest, ScalarOracleBitIdenticalAcrossCacheBlockSizes) {
  // The oracle's blocking is a pure loop-order change: every C element
  // still accumulates its k terms in ascending order, so results must be
  // bit-identical for ANY cache_block. (This is what lets tests compare
  // runs across configs.)
  Rng rng(13);
  Tile a = RandomTile(70, 130, &rng);
  Tile b = RandomTile(130, 50, &rng);
  const KernelConfig saved = GetKernelConfig();
  Tile reference(70, 50);
  for (int64_t block : {16, 64, 256}) {
    KernelConfig cfg = saved;
    cfg.cache_block = block;
    SetKernelConfig(cfg);
    Tile c(70, 50);
    FillTile(&c, 0.0);
    ASSERT_TRUE(GemmScalar(a, b, 1.0, 0.0, &c).ok());
    if (block == 16) {
      reference = c;
    } else {
      ExpectBitIdentical(reference, c);
    }
  }
  SetKernelConfig(saved);
}

TEST(GemmKernelTest, FuzzSimdVsScalar) {
  Rng rng(12345);
  for (int iter = 0; iter < 60; ++iter) {
    const int64_t m = rng.NextInt(1, 41);
    const int64_t k = rng.NextInt(1, 61);
    const int64_t n = rng.NextInt(1, 41);
    const double alpha = rng.NextDouble(-1.0, 1.0);
    const double beta = iter % 3 == 0 ? 0.0 : rng.NextDouble();
    Tile a = RandomTile(m, k, &rng);
    Tile b = RandomTile(k, n, &rng);
    Tile c0 = RandomTile(m, n, &rng);
    Tile c_scalar = c0;
    Tile c_simd = c0;
    ASSERT_TRUE(
        GemmWithMode(KernelMode::kScalar, a, b, alpha, beta, &c_scalar).ok());
    ASSERT_TRUE(
        GemmWithMode(KernelMode::kSimd, a, b, alpha, beta, &c_simd).ok());
    ASSERT_LE(MaxRelDiff(c_scalar, c_simd), kFmaRelTol)
        << "iter " << iter << ": " << m << "x" << k << "x" << n;
  }
}

// ---------------------------------------------------------------------------
// Gemm operand orientation: reading X^T in place equals TransposeTile + Gemm
// ---------------------------------------------------------------------------

/// The tile a multiply operand is stored as: op(X) = X^T is stored as X.
Tile StoredAs(const Tile& logical, Orientation orient) {
  if (orient == Orientation::kAsStored) return logical;
  Tile stored(logical.cols(), logical.rows());
  CUMULON_CHECK(TransposeTile(logical, &stored).ok());
  return stored;
}

/// A blocking small enough that the packed kernel packs B in several kc
/// blocks (k > 16) and several nc blocks (n > 32) and the scalar oracle
/// runs several cache blocks.
KernelConfig TinyConfig(const KernelConfig& base) {
  KernelConfig tiny = base;
  tiny.pack_nc = 2 * kernel_internal::kAvx512Nr;
  tiny.pack_kc = 16;
  tiny.cache_block = 16;
  return tiny;
}

const Orientation kOrients[] = {Orientation::kAsStored,
                                Orientation::kTransposed};

std::string OrientLabel(Orientation ao, Orientation bo) {
  return std::string(" A") + (ao == Orientation::kTransposed ? "^T" : "") +
         " B" + (bo == Orientation::kTransposed ? "^T" : "");
}

TEST(GemmOrientationTest, InPlaceTransposesMatchTransposedCopies) {
  // Every orientation pair, both kernels, every edge shape, alpha/beta
  // including beta = 0 over a NaN-poisoned C, and two blockings (the
  // default and one small enough that the packed kernel packs B across
  // several kc and nc blocks). The reference multiplies the TransposeTile
  // copies as stored; the in-place result must match it bit for bit.
  const KernelConfig saved = GetKernelConfig();
  const KernelConfig tiny = TinyConfig(saved);
  Rng rng(41);
  for (const KernelConfig& cfg : {saved, tiny}) {
    SetKernelConfig(cfg);
    for (KernelMode mode : {KernelMode::kScalar, KernelMode::kSimd}) {
      for (const GemmShape& s : kEdgeShapes) {
        for (Orientation ao : kOrients) {
          for (Orientation bo : kOrients) {
            for (auto [alpha, beta] : std::vector<std::pair<double, double>>{
                     {1.0, 0.0}, {-0.75, 1.0}, {0.5, 2.5}}) {
              const Tile a = RandomTile(s.m, s.k, &rng);  // op(A)
              const Tile b = RandomTile(s.k, s.n, &rng);  // op(B)
              const Tile a_stored = StoredAs(a, ao);
              const Tile b_stored = StoredAs(b, bo);
              Tile c0 = RandomTile(s.m, s.n, &rng);
              if (beta == 0.0) {
                FillTile(&c0, std::numeric_limits<double>::quiet_NaN());
              }
              Tile expected = c0;
              Tile got = c0;
              ASSERT_TRUE(
                  GemmWithMode(mode, a, b, alpha, beta, &expected).ok());
              ASSERT_TRUE(GemmWithMode(mode, a_stored, b_stored, alpha, beta,
                                       &got, ao, bo)
                              .ok());
              SCOPED_TRACE(::testing::Message()
                           << KernelModeName(mode) << " " << s.m << "x"
                           << s.k << "x" << s.n << " A"
                           << (ao == Orientation::kTransposed ? "^T" : "")
                           << " B"
                           << (bo == Orientation::kTransposed ? "^T" : "")
                           << " alpha=" << alpha << " beta=" << beta);
              ExpectBitIdentical(expected, got);
            }
          }
        }
      }
    }
  }
  SetKernelConfig(saved);
}

TEST(GemmOrientationTest, TransposedShapeMismatchIsRejected) {
  // A stored 4 x 6 read transposed is 6 x 4: it multiplies a 4 x n B, not
  // the 6 x n one its stored shape would suggest.
  Tile a(4, 6), b_ok(4, 5), b_bad(6, 5), c(6, 5);
  FillTile(&a, 1.0);
  FillTile(&b_ok, 1.0);
  FillTile(&b_bad, 1.0);
  for (KernelMode mode : {KernelMode::kScalar, KernelMode::kSimd}) {
    EXPECT_TRUE(GemmWithMode(mode, a, b_ok, 1.0, 0.0, &c,
                             Orientation::kTransposed)
                    .ok());
    EXPECT_EQ(GemmWithMode(mode, a, b_bad, 1.0, 0.0, &c,
                           Orientation::kTransposed)
                  .code(),
              StatusCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------------
// Gemm vector widths: each instantiation called directly
// ---------------------------------------------------------------------------

using GemmFn = Status (*)(const Tile&, const Tile&, double, double, Tile*,
                          Orientation, Orientation);

GemmFn WidthKernel(SimdWidth width) {
  return width == SimdWidth::kAvx512 ? kernel_internal::GemmPackedAvx512
                                     : kernel_internal::GemmPackedAvx2;
}

std::string MissingFeature(SimdWidth width) {
  return width == SimdWidth::kAvx512 ? "avx512f" : "avx2+fma";
}

/// One multiply case: random op(A), op(B) and C, stored per orientation.
struct GemmCase {
  Tile a_stored, b_stored, c0;
  Orientation ao, bo;
  double alpha, beta;
};

/// Runs `body` on every shape in kEdgeShapes and kWorkloadShapes, every
/// orientation pair, alpha in {1, 0.5} and beta in {0, 1, 2}; C is
/// NaN-poisoned when beta = 0.
template <typename Body>
void ForEachGemmCase(uint64_t seed, Body body) {
  std::vector<GemmShape> shapes(std::begin(kEdgeShapes),
                                std::end(kEdgeShapes));
  shapes.insert(shapes.end(), std::begin(kWorkloadShapes),
                std::end(kWorkloadShapes));
  Rng rng(seed);
  for (const GemmShape& s : shapes) {
    for (Orientation ao : kOrients) {
      for (Orientation bo : kOrients) {
        for (double alpha : {1.0, 0.5}) {
          for (double beta : {0.0, 1.0, 2.0}) {
            GemmCase gc{StoredAs(RandomTile(s.m, s.k, &rng), ao),
                        StoredAs(RandomTile(s.k, s.n, &rng), bo),
                        RandomTile(s.m, s.n, &rng),
                        ao,
                        bo,
                        alpha,
                        beta};
            if (beta == 0.0) {
              FillTile(&gc.c0, std::numeric_limits<double>::quiet_NaN());
            }
            SCOPED_TRACE(::testing::Message()
                         << s.m << "x" << s.k << "x" << s.n
                         << OrientLabel(ao, bo) << " alpha=" << alpha
                         << " beta=" << beta);
            body(gc);
          }
        }
      }
    }
  }
}

/// Each width, called through kernel_internal: skipped with the reason on a
/// CPU without the width's instructions.
class GemmWidthTest : public ::testing::TestWithParam<SimdWidth> {
 protected:
  void SetUp() override {
    if (!CpuSupportsSimdWidth(GetParam())) {
      GTEST_SKIP() << "CPU lacks " << MissingFeature(GetParam()) << ": the "
                   << SimdWidthName(GetParam()) << " Gemm cannot run here";
    }
  }

  Tile Multiply(const GemmCase& gc) const {
    Tile c = gc.c0;
    const Status st = WidthKernel(GetParam())(
        gc.a_stored, gc.b_stored, gc.alpha, gc.beta, &c, gc.ao, gc.bo);
    EXPECT_TRUE(st.ok()) << st;
    return c;
  }
};

TEST_P(GemmWidthTest, MatchesOracleWithinFmaTolerance) {
  ForEachGemmCase(51, [&](const GemmCase& gc) {
    Tile expected = gc.c0;
    ASSERT_TRUE(GemmScalar(gc.a_stored, gc.b_stored, gc.alpha, gc.beta,
                           &expected, gc.ao, gc.bo)
                    .ok());
    const Tile got = Multiply(gc);
    EXPECT_LE(MaxRelDiff(expected, got), kFmaRelTol);
    // MaxRelDiff skips NaNs. The inputs have none, so any NaN in the
    // result is the poisoned C leaking through a beta = 0 multiply.
    for (int64_t i = 0; i < got.rows() * got.cols(); ++i) {
      ASSERT_FALSE(std::isnan(got.data()[i])) << "element " << i;
    }
  });
}

TEST_P(GemmWidthTest, InPlaceTransposesMatchTransposedCopies) {
  // Both blockings: the default and one that packs B in several kc and nc
  // blocks. The reference multiplies as-stored copies of op(A) and op(B).
  const KernelConfig saved = GetKernelConfig();
  for (const KernelConfig& cfg : {saved, TinyConfig(saved)}) {
    SetKernelConfig(cfg);
    ForEachGemmCase(53, [&](const GemmCase& gc) {
      GemmCase copies = gc;
      if (gc.ao == Orientation::kTransposed) {
        copies.a_stored = Tile(gc.a_stored.cols(), gc.a_stored.rows());
        ASSERT_TRUE(TransposeTile(gc.a_stored, &copies.a_stored).ok());
        copies.ao = Orientation::kAsStored;
      }
      if (gc.bo == Orientation::kTransposed) {
        copies.b_stored = Tile(gc.b_stored.cols(), gc.b_stored.rows());
        ASSERT_TRUE(TransposeTile(gc.b_stored, &copies.b_stored).ok());
        copies.bo = Orientation::kAsStored;
      }
      ExpectBitIdentical(Multiply(copies), Multiply(gc));
    });
  }
  SetKernelConfig(saved);
}

INSTANTIATE_TEST_SUITE_P(Widths, GemmWidthTest,
                         ::testing::Values(SimdWidth::kAvx2,
                                           SimdWidth::kAvx512),
                         [](const ::testing::TestParamInfo<SimdWidth>& info) {
                           return std::string(SimdWidthName(info.param));
                         });

TEST(GemmWidthAgreementTest, WidthsAndBlockingsAgreeBitForBit) {
  // Every C element is its beta-scaled value followed by its k terms as
  // ascending FMAs at either width and any blocking, so AVX2 and AVX-512,
  // under the default and the tiny blocking, give the same bits.
  for (SimdWidth width : {SimdWidth::kAvx2, SimdWidth::kAvx512}) {
    if (!CpuSupportsSimdWidth(width)) {
      GTEST_SKIP() << "CPU lacks " << MissingFeature(width)
                   << ": only one Gemm width can run here";
    }
  }
  const KernelConfig saved = GetKernelConfig();
  const KernelConfig tiny = TinyConfig(saved);
  ForEachGemmCase(57, [&](const GemmCase& gc) {
    std::vector<Tile> results;
    for (const KernelConfig& cfg : {saved, tiny}) {
      SetKernelConfig(cfg);
      for (SimdWidth width : {SimdWidth::kAvx2, SimdWidth::kAvx512}) {
        Tile c = gc.c0;
        ASSERT_TRUE(WidthKernel(width)(gc.a_stored, gc.b_stored, gc.alpha,
                                       gc.beta, &c, gc.ao, gc.bo)
                        .ok());
        results.push_back(std::move(c));
      }
    }
    for (size_t i = 1; i < results.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "result " << i
                                        << " (avx2/avx512 x default/tiny)");
      ExpectBitIdentical(results[0], results[i]);
    }
  });
  SetKernelConfig(saved);
}

TEST(GemmWidthAgreementTest, DispatchRunsTheWidestSupportedWidth) {
  EXPECT_EQ(DispatchedSimdWidth(),
            CpuSupportsSimdWidth(SimdWidth::kAvx512) ? SimdWidth::kAvx512
                                                     : SimdWidth::kAvx2);
  EXPECT_STREQ(GemmKernelName(KernelMode::kScalar), "scalar");
  EXPECT_STREQ(GemmKernelName(KernelMode::kAuto),
               SimdKernelAvailable() ? SimdWidthName(DispatchedSimdWidth())
                                     : "scalar");
}

// ---------------------------------------------------------------------------
// Element-wise / aggregate kernels: bit-identical across modes
// ---------------------------------------------------------------------------

TEST(EwKernelTest, BinaryOpsBitIdenticalToScalar) {
  Rng rng(21);
  for (BinaryOp op : {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul,
                      BinaryOp::kDiv, BinaryOp::kMax, BinaryOp::kMin}) {
    for (int64_t n : {1, 3, 4, 5, 31, 257}) {
      Tile a = RandomTile(n, n, &rng);
      Tile b = RandomTile(n, n, &rng);
      Tile out_scalar(n, n), out_simd(n, n);
      ASSERT_TRUE(
          EwBinaryWithMode(KernelMode::kScalar, op, a, b, &out_scalar).ok());
      ASSERT_TRUE(
          EwBinaryWithMode(KernelMode::kSimd, op, a, b, &out_simd).ok());
      ExpectBitIdentical(out_scalar, out_simd);
    }
  }
}

TEST(EwKernelTest, MaxMinNanSemanticsMatchScalar) {
  // The vector max/min use compare+blend replicating std::max/min's NaN
  // behavior exactly; mixed NaN operands must come out bit-identical.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Tile a(2, 4), b(2, 4);
  const double avals[] = {nan, 1.0, nan, -2.0, 3.0, nan, 0.0, nan};
  const double bvals[] = {1.0, nan, nan, 5.0, nan, -1.0, nan, nan};
  for (int64_t i = 0; i < 8; ++i) {
    a.mutable_data()[i] = avals[i];
    b.mutable_data()[i] = bvals[i];
  }
  for (BinaryOp op : {BinaryOp::kMax, BinaryOp::kMin}) {
    Tile out_scalar(2, 4), out_simd(2, 4);
    ASSERT_TRUE(
        EwBinaryWithMode(KernelMode::kScalar, op, a, b, &out_scalar).ok());
    ASSERT_TRUE(
        EwBinaryWithMode(KernelMode::kSimd, op, a, b, &out_simd).ok());
    for (int64_t i = 0; i < 8; ++i) {
      const double s = out_scalar.data()[i];
      const double v = out_simd.data()[i];
      EXPECT_TRUE((std::isnan(s) && std::isnan(v)) || s == v)
          << BinaryOpName(op) << " lane " << i;
    }
  }
}

TEST(EwKernelTest, BroadcastAndUnaryBitIdenticalToScalar) {
  Rng rng(23);
  Tile a = RandomTile(9, 13, &rng);
  Tile row = RandomTile(1, 13, &rng);
  Tile col = RandomTile(9, 1, &rng);
  for (BinaryOp op : {BinaryOp::kAdd, BinaryOp::kMul, BinaryOp::kDiv}) {
    for (bool swapped : {false, true}) {
      Tile s1(9, 13), s2(9, 13);
      ASSERT_TRUE(EwBroadcastWithMode(KernelMode::kScalar, op, a, row, true,
                                      swapped, &s1)
                      .ok());
      ASSERT_TRUE(EwBroadcastWithMode(KernelMode::kSimd, op, a, row, true,
                                      swapped, &s2)
                      .ok());
      ExpectBitIdentical(s1, s2);
      ASSERT_TRUE(EwBroadcastWithMode(KernelMode::kScalar, op, a, col, false,
                                      swapped, &s1)
                      .ok());
      ASSERT_TRUE(EwBroadcastWithMode(KernelMode::kSimd, op, a, col, false,
                                      swapped, &s2)
                      .ok());
      ExpectBitIdentical(s1, s2);
    }
  }
  Tile u1(9, 13), u2(9, 13);
  ASSERT_TRUE(
      EwUnaryWithMode(KernelMode::kScalar, UnaryOp::kScale, a, 1.7, &u1).ok());
  ASSERT_TRUE(
      EwUnaryWithMode(KernelMode::kSimd, UnaryOp::kScale, a, 1.7, &u2).ok());
  ExpectBitIdentical(u1, u2);
  ASSERT_TRUE(
      EwUnaryWithMode(KernelMode::kScalar, UnaryOp::kAddScalar, a, -0.3, &u1)
          .ok());
  ASSERT_TRUE(
      EwUnaryWithMode(KernelMode::kSimd, UnaryOp::kAddScalar, a, -0.3, &u2)
          .ok());
  ExpectBitIdentical(u1, u2);
}

TEST(EwKernelTest, AccumulateAndColSumsBitIdenticalToScalar) {
  Rng rng(29);
  Tile x = RandomTile(17, 33, &rng);
  Tile acc0 = RandomTile(17, 33, &rng);
  Tile acc_scalar = acc0, acc_simd = acc0;
  ASSERT_TRUE(
      AccumulateIntoWithMode(KernelMode::kScalar, x, &acc_scalar).ok());
  ASSERT_TRUE(AccumulateIntoWithMode(KernelMode::kSimd, x, &acc_simd).ok());
  ExpectBitIdentical(acc_scalar, acc_simd);

  Tile cs0 = RandomTile(1, 33, &rng);
  Tile cs_scalar = cs0, cs_simd = cs0;
  ASSERT_TRUE(ColSumsIntoWithMode(KernelMode::kScalar, x, &cs_scalar).ok());
  ASSERT_TRUE(ColSumsIntoWithMode(KernelMode::kSimd, x, &cs_simd).ok());
  ExpectBitIdentical(cs_scalar, cs_simd);
}

TEST(EwKernelTest, FuzzEwBitIdentical) {
  Rng rng(31337);
  for (int iter = 0; iter < 40; ++iter) {
    const int64_t rows = rng.NextInt(1, 51);
    const int64_t cols = rng.NextInt(1, 51);
    const BinaryOp op = static_cast<BinaryOp>(iter % 6);
    Tile a = RandomTile(rows, cols, &rng);
    Tile b = RandomTile(rows, cols, &rng);
    Tile s(rows, cols), v(rows, cols);
    ASSERT_TRUE(EwBinaryWithMode(KernelMode::kScalar, op, a, b, &s).ok());
    ASSERT_TRUE(EwBinaryWithMode(KernelMode::kSimd, op, a, b, &v).ok());
    ExpectBitIdentical(s, v);
  }
}

}  // namespace
}  // namespace cumulon
