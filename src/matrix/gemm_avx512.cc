// The packed Gemm at AVX-512F width. Built with -mavx512f
// (src/matrix/CMakeLists.txt); see gemm_micro_kernel.h for why this file
// includes nothing else.

#include "matrix/gemm_micro_kernel.h"

#if CUMULON_HAVE_X86_KERNELS

#if !defined(__AVX512F__)
#error "gemm_avx512.cc must be compiled with -mavx512f"
#endif

#include <immintrin.h>

namespace cumulon {
namespace kernel_internal {
namespace {

struct Avx512 {
  using Vec = __m512d;
  using Mask = __mmask8;
  static constexpr int kLanes = 8;
  static constexpr int kMr = kAvx512Mr;
  static_assert(2 * kLanes == kAvx512Nr);

  /// Lanes [0, n) set, n in [0, kLanes].
  static Mask FirstLanes(int64_t n) {
    return static_cast<Mask>((1u << n) - 1u);
  }
  static Vec Load(const double* p) { return _mm512_load_pd(p); }
  static Vec LoadMasked(const double* p, Mask m) {
    return _mm512_maskz_loadu_pd(m, p);
  }
  static void StoreMasked(double* p, Mask m, Vec v) {
    _mm512_mask_storeu_pd(p, m, v);
  }
  static Vec Broadcast(const double* p) { return _mm512_set1_pd(*p); }
  static Vec Set1(double x) { return _mm512_set1_pd(x); }
  static Vec Mul(Vec x, Vec y) { return _mm512_mul_pd(x, y); }
  static Vec Fma(Vec x, Vec y, Vec z) { return _mm512_fmadd_pd(x, y, z); }
};

}  // namespace

void GemmBlocksAvx512(const GemmBlocksArgs& args) {
  GemmBlocks<Avx512>(args);
}

}  // namespace kernel_internal
}  // namespace cumulon

#endif  // CUMULON_HAVE_X86_KERNELS
