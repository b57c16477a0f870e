#include "matrix/gemm_packed.h"

#include <algorithm>

#include "common/aligned_buffer.h"
#include "common/logging.h"
#include "matrix/kernel_config.h"

/// The build has no global -mavx2/-mfma (the binary must run on any x86-64
/// machine), so every function that emits vector instructions carries
/// __attribute__((target("avx2,fma"))) and is only reached after
/// SimdKernelAvailable() said the CPU has AVX2+FMA. The packing loops and
/// the orchestrator compile as plain C++ — which also keeps the scalar tail
/// paths free of compiler FMA contraction, so tail elements round exactly
/// like the scalar oracle.

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define CUMULON_HAVE_AVX2_KERNELS 1
#include <immintrin.h>
#else
#define CUMULON_HAVE_AVX2_KERNELS 0
#endif

namespace cumulon {
namespace kernel_internal {

bool PackedKernelCompiled() { return CUMULON_HAVE_AVX2_KERNELS != 0; }

#if CUMULON_HAVE_AVX2_KERNELS

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

/// 6x8 register-tiled FMA inner kernel over packed panels: 12 YMM
/// accumulators (initialized from C, so accumulation per element starts
/// from the beta-scaled value and proceeds in ascending k — reorder-safe),
/// 2 B vectors, 1 A broadcast. B panel loads are 32-byte aligned by
/// construction: the packing buffer is cache-line aligned and full panels
/// have a stride of kc * 8 doubles.
CUMULON_TARGET_AVX2 void MicroKernel6x8(int64_t kc,
                                        const double* __restrict ap,
                                        const double* __restrict bp,
                                        double* __restrict c, int64_t ldc) {
  __m256d c00 = _mm256_loadu_pd(c);
  __m256d c01 = _mm256_loadu_pd(c + 4);
  __m256d c10 = _mm256_loadu_pd(c + ldc);
  __m256d c11 = _mm256_loadu_pd(c + ldc + 4);
  __m256d c20 = _mm256_loadu_pd(c + 2 * ldc);
  __m256d c21 = _mm256_loadu_pd(c + 2 * ldc + 4);
  __m256d c30 = _mm256_loadu_pd(c + 3 * ldc);
  __m256d c31 = _mm256_loadu_pd(c + 3 * ldc + 4);
  __m256d c40 = _mm256_loadu_pd(c + 4 * ldc);
  __m256d c41 = _mm256_loadu_pd(c + 4 * ldc + 4);
  __m256d c50 = _mm256_loadu_pd(c + 5 * ldc);
  __m256d c51 = _mm256_loadu_pd(c + 5 * ldc + 4);
  for (int64_t p = 0; p < kc; ++p) {
    const __m256d b0 = _mm256_load_pd(bp + 8 * p);
    const __m256d b1 = _mm256_load_pd(bp + 8 * p + 4);
    __m256d av = _mm256_broadcast_sd(ap + 6 * p);
    c00 = _mm256_fmadd_pd(av, b0, c00);
    c01 = _mm256_fmadd_pd(av, b1, c01);
    av = _mm256_broadcast_sd(ap + 6 * p + 1);
    c10 = _mm256_fmadd_pd(av, b0, c10);
    c11 = _mm256_fmadd_pd(av, b1, c11);
    av = _mm256_broadcast_sd(ap + 6 * p + 2);
    c20 = _mm256_fmadd_pd(av, b0, c20);
    c21 = _mm256_fmadd_pd(av, b1, c21);
    av = _mm256_broadcast_sd(ap + 6 * p + 3);
    c30 = _mm256_fmadd_pd(av, b0, c30);
    c31 = _mm256_fmadd_pd(av, b1, c31);
    av = _mm256_broadcast_sd(ap + 6 * p + 4);
    c40 = _mm256_fmadd_pd(av, b0, c40);
    c41 = _mm256_fmadd_pd(av, b1, c41);
    av = _mm256_broadcast_sd(ap + 6 * p + 5);
    c50 = _mm256_fmadd_pd(av, b0, c50);
    c51 = _mm256_fmadd_pd(av, b1, c51);
  }
  _mm256_storeu_pd(c, c00);
  _mm256_storeu_pd(c + 4, c01);
  _mm256_storeu_pd(c + ldc, c10);
  _mm256_storeu_pd(c + ldc + 4, c11);
  _mm256_storeu_pd(c + 2 * ldc, c20);
  _mm256_storeu_pd(c + 2 * ldc + 4, c21);
  _mm256_storeu_pd(c + 3 * ldc, c30);
  _mm256_storeu_pd(c + 3 * ldc + 4, c31);
  _mm256_storeu_pd(c + 4 * ldc, c40);
  _mm256_storeu_pd(c + 4 * ldc + 4, c41);
  _mm256_storeu_pd(c + 5 * ldc, c50);
  _mm256_storeu_pd(c + 5 * ldc + 4, c51);
}

/// Strides of a logical operand op(X) in its stored row-major tile, whose
/// rows are `ld` doubles long: element (r, c) of op(X) is
/// x[r * row + c * col]. A transposed operand swaps the two.
struct Strides {
  int64_t row;
  int64_t col;
};

Strides OperandStrides(Orientation orient, int64_t ld) {
  return orient == Orientation::kTransposed ? Strides{1, ld} : Strides{ld, 1};
}

/// Packs op(A)[ic : ic+mc_eff, pc : pc+kc_eff] into tight kPackMr-row
/// panels: panel (ir / kPackMr) holds ap[p * mr_eff + ii] = alpha *
/// op(A)(ic+ir+ii, pc+p). Folding alpha here mirrors the scalar kernel's
/// `av = alpha * a[kk]` so per-element rounding of the alpha product
/// matches the oracle.
void PackA(const double* a, Strides s, int64_t ic, int64_t mc_eff,
           int64_t pc, int64_t kc_eff, double alpha, double* ap) {
  double* dst = ap;
  for (int64_t ir = 0; ir < mc_eff; ir += kPackMr) {
    const int64_t mr_eff = std::min<int64_t>(kPackMr, mc_eff - ir);
    const double* src = a + (ic + ir) * s.row + pc * s.col;
    for (int64_t p = 0; p < kc_eff; ++p) {
      for (int64_t ii = 0; ii < mr_eff; ++ii) {
        dst[p * mr_eff + ii] = alpha * src[ii * s.row + p * s.col];
      }
    }
    dst += kc_eff * mr_eff;
  }
}

/// Packs op(B)[pc : pc+kc_eff, jc : jc+nc_eff] into tight kPackNr-column
/// panels: bp[p * nr_eff + jj] = op(B)(pc+p, jc+jr+jj).
void PackB(const double* b, Strides s, int64_t pc, int64_t kc_eff,
           int64_t jc, int64_t nc_eff, double* bp) {
  double* dst = bp;
  for (int64_t jr = 0; jr < nc_eff; jr += kPackNr) {
    const int64_t nr_eff = std::min<int64_t>(kPackNr, nc_eff - jr);
    const double* src = b + pc * s.row + (jc + jr) * s.col;
    for (int64_t p = 0; p < kc_eff; ++p) {
      for (int64_t jj = 0; jj < nr_eff; ++jj) {
        dst[p * nr_eff + jj] = src[p * s.row + jj * s.col];
      }
    }
    dst += kc_eff * nr_eff;
  }
}

/// Scalar edge kernel over packed panels (mr_eff x nr_eff smaller than the
/// register tile). Compiled without FMA contraction, so edge elements
/// round exactly like the oracle.
void TailBlock(const double* ap, int64_t mr_eff, const double* bp,
               int64_t nr_eff, int64_t kc_eff, double* c, int64_t ldc) {
  for (int64_t ii = 0; ii < mr_eff; ++ii) {
    for (int64_t jj = 0; jj < nr_eff; ++jj) {
      double s = c[ii * ldc + jj];
      for (int64_t p = 0; p < kc_eff; ++p) {
        s += ap[p * mr_eff + ii] * bp[p * nr_eff + jj];
      }
      c[ii * ldc + jj] = s;
    }
  }
}

/// Per-thread packing buffers: reused across Gemm calls (task bodies call
/// Gemm once per k-tile), cache-line aligned for the aligned B-panel loads.
AlignedVector<double>& PackBufferA() {
  static thread_local AlignedVector<double> buf;
  return buf;
}
AlignedVector<double>& PackBufferB() {
  static thread_local AlignedVector<double> buf;
  return buf;
}

}  // namespace

Status GemmPackedAvx2(const Tile& a, const Tile& b, double alpha, double beta,
                      Tile* c, Orientation a_orient, Orientation b_orient) {
  int64_t m = 0, k = 0, n = 0;
  CUMULON_RETURN_IF_ERROR(
      CheckGemmShapes(a, a_orient, b, b_orient, *c, &m, &k, &n));
  const Strides as = OperandStrides(a_orient, a.cols());
  const Strides bs = OperandStrides(b_orient, b.cols());
  double* cd = c->mutable_data();
  if (beta == 0.0) {
    std::fill(cd, cd + m * n, 0.0);
  } else if (beta != 1.0) {
    for (int64_t i = 0; i < m * n; ++i) cd[i] *= beta;
  }

  // Blocking clamped to the problem: buffers never exceed what this call
  // can use. mc/nc round up to whole register-tile multiples (kPackMr/Nr
  // are not powers of two, so no AlignUp here).
  auto round_up = [](int64_t v, int64_t mult) {
    return ((v + mult - 1) / mult) * mult;
  };
  const KernelConfig& cfg = GetKernelConfig();
  const int64_t kc = std::clamp<int64_t>(cfg.pack_kc, 1, k);
  const int64_t mc = round_up(
      std::max<int64_t>(std::min<int64_t>(cfg.pack_mc, m), 1), kPackMr);
  const int64_t nc = round_up(
      std::max<int64_t>(std::min<int64_t>(cfg.pack_nc, n), 1), kPackNr);

  AlignedVector<double>& ap_buf = PackBufferA();
  AlignedVector<double>& bp_buf = PackBufferB();
  ap_buf.resize(static_cast<size_t>(mc * kc));
  bp_buf.resize(static_cast<size_t>(kc * nc));
  double* ap = ap_buf.data();
  double* bp = bp_buf.data();

  const double* ad = a.data();
  const double* bd = b.data();
  for (int64_t jc = 0; jc < n; jc += nc) {
    const int64_t nc_eff = std::min(nc, n - jc);
    const int64_t n_full = (nc_eff / kPackNr) * kPackNr;
    for (int64_t pc = 0; pc < k; pc += kc) {
      const int64_t kc_eff = std::min(kc, k - pc);
      PackB(bd, bs, pc, kc_eff, jc, nc_eff, bp);
      for (int64_t ic = 0; ic < m; ic += mc) {
        const int64_t mc_eff = std::min(mc, m - ic);
        const int64_t m_full = (mc_eff / kPackMr) * kPackMr;
        PackA(ad, as, ic, mc_eff, pc, kc_eff, alpha, ap);
        for (int64_t jr = 0; jr < n_full; jr += kPackNr) {
          const double* bpanel = bp + (jr / kPackNr) * kc_eff * kPackNr;
          for (int64_t ir = 0; ir < m_full; ir += kPackMr) {
            MicroKernel6x8(kc_eff, ap + (ir / kPackMr) * kc_eff * kPackMr,
                           bpanel, cd + (ic + ir) * n + jc + jr, n);
          }
          if (m_full < mc_eff) {
            TailBlock(ap + (m_full / kPackMr) * kc_eff * kPackMr,
                      mc_eff - m_full, bpanel, kPackNr, kc_eff,
                      cd + (ic + m_full) * n + jc + jr, n);
          }
        }
        if (n_full < nc_eff) {
          const double* bpanel = bp + (n_full / kPackNr) * kc_eff * kPackNr;
          const int64_t nr_eff = nc_eff - n_full;
          for (int64_t ir = 0; ir < mc_eff; ir += kPackMr) {
            const int64_t mr_eff = std::min<int64_t>(kPackMr, mc_eff - ir);
            TailBlock(ap + (ir / kPackMr) * kc_eff * kPackMr, mr_eff, bpanel,
                      nr_eff, kc_eff, cd + (ic + ir) * n + jc + n_full, n);
          }
        }
      }
    }
  }
  return Status::OK();
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

#else  // !CUMULON_HAVE_AVX2_KERNELS

// Non-x86 (or non-GCC/Clang) build: SimdKernelAvailable() is false, so the
// dispatcher never routes here; aborting keeps a miswired caller loud.

Status GemmPackedAvx2(const Tile& a, const Tile& b, double alpha, double beta,
                      Tile* c, Orientation a_orient, Orientation b_orient) {
  (void)a, (void)b, (void)alpha, (void)beta, (void)c, (void)a_orient,
      (void)b_orient;
  CUMULON_CHECK(false) << "packed AVX2 kernel not compiled into this binary";
  return Status::Internal("packed AVX2 kernel unavailable");
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

#endif  // CUMULON_HAVE_AVX2_KERNELS

}  // namespace kernel_internal
}  // namespace cumulon
