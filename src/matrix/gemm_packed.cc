#include "matrix/gemm_packed.h"

#include <algorithm>

#include "common/aligned_buffer.h"
#include "common/logging.h"
#include "matrix/gemm_micro_kernel.h"
#include "matrix/kernel_config.h"

/// The element-wise bodies below carry __attribute__((target("avx2,fma")))
/// in a file built without global -mavx2 (the binary must run on any x86-64
/// machine) and are only reached after SimdKernelAvailable() said the CPU
/// has AVX2+FMA. The Gemm's vector loops live in gemm_avx2.cc and
/// gemm_avx512.cc (gemm_micro_kernel.h); this file checks shapes, scales C
/// and owns their packing buffer.

#if CUMULON_HAVE_X86_KERNELS
#include <immintrin.h>
#endif

namespace cumulon {
namespace kernel_internal {

#if CUMULON_HAVE_X86_KERNELS

#define CUMULON_TARGET_AVX2 __attribute__((target("avx2,fma")))

namespace {

/// One IEEE op on 4 lanes. kMax/kMin are compare+blend spelling out
/// (x < y) ? y : x and (y < x) ? y : x — exactly std::max/std::min,
/// including which operand survives a NaN — so results stay bit-identical
/// to the scalar loops.
CUMULON_TARGET_AVX2 inline __m256d VecApply(BinaryOp op, __m256d x,
                                            __m256d y) {
  switch (op) {
    case BinaryOp::kAdd:
      return _mm256_add_pd(x, y);
    case BinaryOp::kSub:
      return _mm256_sub_pd(x, y);
    case BinaryOp::kMul:
      return _mm256_mul_pd(x, y);
    case BinaryOp::kDiv:
      return _mm256_div_pd(x, y);
    case BinaryOp::kMax:
      return _mm256_blendv_pd(x, y, _mm256_cmp_pd(x, y, _CMP_LT_OQ));
    case BinaryOp::kMin:
      return _mm256_blendv_pd(x, y, _mm256_cmp_pd(y, x, _CMP_LT_OQ));
  }
  return x;
}

/// Per-thread B packing buffer: reused across Gemm calls (task bodies call
/// Gemm once per k-tile), cache-line aligned for the aligned panel loads.
AlignedVector<double>& PackBufferB() {
  static thread_local AlignedVector<double> buf;
  return buf;
}

/// Shape checks, beta scaling and blocking shared by both widths; `blocks`
/// is the width's blocked multiply and `nr` its register-tile columns.
Status GemmPacked(void (*blocks)(const GemmBlocksArgs&), int64_t nr,
                  const Tile& a, const Tile& b, double alpha, double beta,
                  Tile* c, Orientation a_orient, Orientation b_orient) {
  int64_t m = 0, k = 0, n = 0;
  CUMULON_RETURN_IF_ERROR(
      CheckGemmShapes(a, a_orient, b, b_orient, *c, &m, &k, &n));
  double* cd = c->mutable_data();
  if (beta == 0.0) {
    std::fill(cd, cd + m * n, 0.0);
  } else if (beta != 1.0) {
    for (int64_t i = 0; i < m * n; ++i) cd[i] *= beta;
  }

  GemmBlocksArgs args;
  args.a = a.data();
  args.lda = a.cols();
  args.a_transposed = a_orient == Orientation::kTransposed;
  args.b = b.data();
  const bool tb = b_orient == Orientation::kTransposed;
  args.b_row = tb ? 1 : b.cols();
  args.b_col = tb ? b.cols() : 1;
  args.c = cd;
  args.m = m;
  args.k = k;
  args.n = n;
  args.alpha = alpha;
  // Blocking clamped to the problem, so the buffer never exceeds what this
  // call can use; nc rounds up to whole register tiles.
  const KernelConfig& cfg = GetKernelConfig();
  args.kc = std::clamp<int64_t>(cfg.pack_kc, 1, k);
  args.nc = AlignUp(std::clamp<int64_t>(cfg.pack_nc, 1, n), nr);
  AlignedVector<double>& buf = PackBufferB();
  buf.resize(static_cast<size_t>(args.kc * args.nc));
  args.b_pack = buf.data();
  blocks(args);
  return Status::OK();
}

}  // namespace

Status GemmPackedAvx2(const Tile& a, const Tile& b, double alpha, double beta,
                      Tile* c, Orientation a_orient, Orientation b_orient) {
  return GemmPacked(&GemmBlocksAvx2, kAvx2Nr, a, b, alpha, beta, c, a_orient,
                    b_orient);
}

Status GemmPackedAvx512(const Tile& a, const Tile& b, double alpha,
                        double beta, Tile* c, Orientation a_orient,
                        Orientation b_orient) {
  return GemmPacked(&GemmBlocksAvx512, kAvx512Nr, a, b, alpha, beta, c,
                    a_orient, b_orient);
}

CUMULON_TARGET_AVX2 void EwBinaryAvx2(BinaryOp op, const double* a,
                                      const double* b, double* o, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        o + i, VecApply(op, _mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) o[i] = ApplyBinary(op, a[i], b[i]);
}

CUMULON_TARGET_AVX2 void EwScalarAvx2(BinaryOp op, const double* a, double s,
                                      bool swapped, double* o, int64_t n) {
  const __m256d sv = _mm256_set1_pd(s);
  int64_t i = 0;
  if (swapped) {
    for (; i + 4 <= n; i += 4) {
      _mm256_storeu_pd(o + i, VecApply(op, sv, _mm256_loadu_pd(a + i)));
    }
    for (; i < n; ++i) o[i] = ApplyBinary(op, s, a[i]);
  } else {
    for (; i + 4 <= n; i += 4) {
      _mm256_storeu_pd(o + i, VecApply(op, _mm256_loadu_pd(a + i), sv));
    }
    for (; i < n; ++i) o[i] = ApplyBinary(op, a[i], s);
  }
}

CUMULON_TARGET_AVX2 void AccumulateAvx2(const double* x, double* acc,
                                        int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        acc + i,
        _mm256_add_pd(_mm256_loadu_pd(acc + i), _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) acc[i] += x[i];
}

CUMULON_TARGET_AVX2 void ColSumsAvx2(const double* t, int64_t rows,
                                     int64_t cols, double* acc) {
  for (int64_t r = 0; r < rows; ++r) {
    const double* row = t + r * cols;
    int64_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      _mm256_storeu_pd(
          acc + c,
          _mm256_add_pd(_mm256_loadu_pd(acc + c), _mm256_loadu_pd(row + c)));
    }
    for (; c < cols; ++c) acc[c] += row[c];
  }
}

#else  // !CUMULON_HAVE_X86_KERNELS

// Non-x86 (or non-GCC/Clang) build: SimdKernelAvailable() is false, so the
// dispatcher never routes here; aborting keeps a miswired caller loud.

Status GemmPackedAvx2(const Tile& a, const Tile& b, double alpha, double beta,
                      Tile* c, Orientation a_orient, Orientation b_orient) {
  (void)a, (void)b, (void)alpha, (void)beta, (void)c, (void)a_orient,
      (void)b_orient;
  CUMULON_CHECK(false) << "packed AVX2 kernel not compiled into this binary";
  return Status::Internal("packed AVX2 kernel unavailable");
}

Status GemmPackedAvx512(const Tile& a, const Tile& b, double alpha,
                        double beta, Tile* c, Orientation a_orient,
                        Orientation b_orient) {
  (void)a, (void)b, (void)alpha, (void)beta, (void)c, (void)a_orient,
      (void)b_orient;
  CUMULON_CHECK(false) << "packed AVX-512 kernel not compiled into this binary";
  return Status::Internal("packed AVX-512 kernel unavailable");
}

void EwBinaryAvx2(BinaryOp op, const double* a, const double* b, double* o,
                  int64_t n) {
  (void)op, (void)a, (void)b, (void)o, (void)n;
  CUMULON_CHECK(false) << "AVX2 EW kernel not compiled into this binary";
}

void EwScalarAvx2(BinaryOp op, const double* a, double s, bool swapped,
                  double* o, int64_t n) {
  (void)op, (void)a, (void)s, (void)swapped, (void)o, (void)n;
  CUMULON_CHECK(false) << "AVX2 EW kernel not compiled into this binary";
}

void AccumulateAvx2(const double* x, double* acc, int64_t n) {
  (void)x, (void)acc, (void)n;
  CUMULON_CHECK(false) << "AVX2 EW kernel not compiled into this binary";
}

void ColSumsAvx2(const double* t, int64_t rows, int64_t cols, double* acc) {
  (void)t, (void)rows, (void)cols, (void)acc;
  CUMULON_CHECK(false) << "AVX2 EW kernel not compiled into this binary";
}

#endif  // CUMULON_HAVE_X86_KERNELS

}  // namespace kernel_internal
}  // namespace cumulon
