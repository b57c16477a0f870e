#ifndef CUMULON_MATRIX_GEMM_MICRO_KERNEL_H_
#define CUMULON_MATRIX_GEMM_MICRO_KERNEL_H_

#include <cstdint>

/// Internal to src/matrix: the packed Gemm's blocked loops and its
/// register-tiled micro-kernel, written once as a template on a vector
/// width. gemm_avx2.cc and gemm_avx512.cc each define a width (a traits
/// type over __m256d or __m512d) and instantiate the template; CMake builds
/// them with -mavx2 -mfma and -mavx512f (src/matrix/CMakeLists.txt). Per-file
/// flags rather than target attributes because a template's target
/// attribute cannot differ between its instantiations in a way GCC and
/// Clang both accept. gemm_packed.cc, built for baseline x86-64, checks
/// shapes, scales C by beta and owns the packing buffer; it calls into
/// these files only after CPUID reported the width.
///
/// The two width files are built for an ISA the host may lack, so they and
/// this header include nothing with external-linkage inline code: a std::
/// template instantiated there could be picked by the linker for callers on
/// any host. Everything they define below the entry points has internal
/// linkage.

// x86-64 GCC/Clang builds carry the vector kernels; elsewhere
// SimdKernelAvailable() is false and none of them is compiled.
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define CUMULON_HAVE_X86_KERNELS 1
#else
#define CUMULON_HAVE_X86_KERNELS 0
#endif

namespace cumulon {
namespace kernel_internal {

/// Register tile of each width: rows x columns of C held in registers.
/// AVX2: 6 x 8 in twelve YMM accumulators (+ 2 B vectors + 1 broadcast =
/// 15 of 16 registers). AVX-512: 8 x 16 in sixteen ZMM accumulators.
inline constexpr int kAvx2Mr = 6;
inline constexpr int kAvx2Nr = 8;
inline constexpr int kAvx512Mr = 8;
inline constexpr int kAvx512Nr = 16;

/// One multiply, after shape checks and beta scaling: C += alpha * op(A) *
/// op(B), op(A) m x k, op(B) k x n, C m x n row-major.
struct GemmBlocksArgs {
  /// op(A) is read in place from its stored row-major tile (rows `lda`
  /// doubles long): op(A)(i, p) is a[i * lda + p] as stored and
  /// a[p * lda + i] when `a_transposed`.
  const double* a = nullptr;
  int64_t lda = 0;
  bool a_transposed = false;
  /// op(B)(p, j) is b[p * b_row + j * b_col].
  const double* b = nullptr;
  int64_t b_row = 0;
  int64_t b_col = 0;
  double* c = nullptr;
  int64_t m = 0;
  int64_t k = 0;
  int64_t n = 0;
  double alpha = 1.0;
  /// Blocking: B is packed kc x nc at a time (nc a multiple of the width's
  /// Nr) into b_pack, which holds kc * nc doubles and is 64-byte aligned.
  int64_t kc = 0;
  int64_t nc = 0;
  double* b_pack = nullptr;
};

/// The two instantiations. They execute AVX2+FMA / AVX-512F instructions
/// unconditionally.
void GemmBlocksAvx2(const GemmBlocksArgs& args);
void GemmBlocksAvx512(const GemmBlocksArgs& args);

namespace {

inline int64_t MinI64(int64_t x, int64_t y) { return x < y ? x : y; }

/// Packs op(B)[0 : kc, 0 : nc] (b points at its first element) into
/// kNr-column panels: panel q holds out[q * kc * kNr + p * kNr + jj] =
/// op(B)(p, q * kNr + jj), zero past column nc, so the micro-kernel always
/// loads whole vectors.
template <int kNr>
void PackB(const double* b, int64_t b_row, int64_t b_col, int64_t kc,
           int64_t nc, double* out) {
  for (int64_t j0 = 0; j0 < nc; j0 += kNr) {
    const int64_t cols = MinI64(kNr, nc - j0);
    double* panel = out + (j0 / kNr) * kc * kNr;
    for (int64_t p = 0; p < kc; ++p) {
      const double* src = b + p * b_row + j0 * b_col;
      for (int64_t jj = 0; jj < cols; ++jj) {
        panel[p * kNr + jj] = src[jj * b_col];
      }
      for (int64_t jj = cols; jj < kNr; ++jj) panel[p * kNr + jj] = 0.0;
    }
  }
}

/// C[0 : kRows, 0 : 2 lanes] += (alpha *) op(A)[0 : kRows, 0 : kc] * one
/// packed B panel. Each accumulator starts from C and takes its kc terms in
/// ascending order as FMAs of the broadcast (alpha * a) with B, so every C
/// element sees the same operations whatever the width, the blocking or
/// the row count. op(A) is read in place, one broadcast per row per k, so
/// no element past row kRows is touched; C columns past the masks m0 (first
/// vector) and m1 (second vector, `hi` columns in: kLanes, or 0 when m1 is
/// empty so its pointer stays inside the tile) are neither read nor
/// written.
template <class V, int kRows, bool kTransA, bool kScale>
inline void MicroKernel(int64_t kc, const double* a, int64_t lda,
                        double alpha, const double* bp, double* c,
                        int64_t ldc, typename V::Mask m0, int64_t hi,
                        typename V::Mask m1) {
  using Vec = typename V::Vec;
  constexpr int kLanes = V::kLanes;
  Vec c0[kRows];
  Vec c1[kRows];
#pragma GCC unroll 16
  for (int r = 0; r < kRows; ++r) {
    c0[r] = V::LoadMasked(c + r * ldc, m0);
    c1[r] = V::LoadMasked(c + r * ldc + hi, m1);
  }
  const Vec va = V::Set1(alpha);
  for (int64_t p = 0; p < kc; ++p) {
    const Vec b0 = V::Load(bp + p * 2 * kLanes);
    const Vec b1 = V::Load(bp + p * 2 * kLanes + kLanes);
#pragma GCC unroll 16
    for (int r = 0; r < kRows; ++r) {
      Vec av = V::Broadcast(kTransA ? a + p * lda + r : a + r * lda + p);
      if constexpr (kScale) av = V::Mul(va, av);
      c0[r] = V::Fma(av, b0, c0[r]);
      c1[r] = V::Fma(av, b1, c1[r]);
    }
  }
#pragma GCC unroll 16
  for (int r = 0; r < kRows; ++r) {
    V::StoreMasked(c + r * ldc, m0, c0[r]);
    V::StoreMasked(c + r * ldc + hi, m1, c1[r]);
  }
}

/// One block of `rows` (<= kRows) rows of C against every packed panel of
/// the current kc x nc block of B. Recurses down to the instantiation for
/// exactly `rows` rows, so edge rows run the same arithmetic as full ones.
template <class V, int kRows, bool kTransA, bool kScale>
void RowBlock(int64_t rows, int64_t kc, const double* a, int64_t lda,
              double alpha, const double* b_pack, int64_t nc, double* c,
              int64_t ldc) {
  if constexpr (kRows > 1) {
    if (rows < kRows) {
      RowBlock<V, kRows - 1, kTransA, kScale>(rows, kc, a, lda, alpha,
                                              b_pack, nc, c, ldc);
      return;
    }
  }
  constexpr int kLanes = V::kLanes;
  constexpr int kNr = 2 * kLanes;
  for (int64_t j0 = 0; j0 < nc; j0 += kNr) {
    const int64_t cols = MinI64(kNr, nc - j0);
    const bool two = cols > kLanes;  // the second vector holds columns
    MicroKernel<V, kRows, kTransA, kScale>(
        kc, a, lda, alpha, b_pack + (j0 / kNr) * kc * kNr, c + j0, ldc,
        V::FirstLanes(two ? kLanes : cols), two ? kLanes : 0,
        V::FirstLanes(two ? cols - kLanes : 0));
  }
}

/// The blocked loops: B is packed one kc x nc block at a time, and each
/// Mr-row strip of op(A) then meets every panel of the block in turn, so
/// the strip's kc columns stay in L1 while the block streams from L2.
template <class V, bool kTransA, bool kScale>
void GemmBlocksFor(const GemmBlocksArgs& g) {
  constexpr int kMr = V::kMr;
  constexpr int kNr = 2 * V::kLanes;
  for (int64_t jc = 0; jc < g.n; jc += g.nc) {
    const int64_t nc = MinI64(g.nc, g.n - jc);
    for (int64_t pc = 0; pc < g.k; pc += g.kc) {
      const int64_t kc = MinI64(g.kc, g.k - pc);
      PackB<kNr>(g.b + pc * g.b_row + jc * g.b_col, g.b_row, g.b_col, kc, nc,
                 g.b_pack);
      for (int64_t ic = 0; ic < g.m; ic += kMr) {
        const double* a =
            kTransA ? g.a + pc * g.lda + ic : g.a + ic * g.lda + pc;
        RowBlock<V, kMr, kTransA, kScale>(MinI64(kMr, g.m - ic), kc, a,
                                          g.lda, g.alpha, g.b_pack, nc,
                                          g.c + ic * g.n + jc, g.n);
      }
    }
  }
}

/// The blocked multiply at width V. alpha == 1 skips the per-broadcast
/// multiply (alpha * a == a exactly, so the bits are the same either way).
template <class V>
void GemmBlocks(const GemmBlocksArgs& g) {
  const bool scale = g.alpha != 1.0;
  if (g.a_transposed) {
    scale ? GemmBlocksFor<V, true, true>(g) : GemmBlocksFor<V, true, false>(g);
  } else {
    scale ? GemmBlocksFor<V, false, true>(g)
          : GemmBlocksFor<V, false, false>(g);
  }
}

}  // namespace
}  // namespace kernel_internal
}  // namespace cumulon

#endif  // CUMULON_MATRIX_GEMM_MICRO_KERNEL_H_
