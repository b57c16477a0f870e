// The packed Gemm at AVX2+FMA width. Built with -mavx2 -mfma
// (src/matrix/CMakeLists.txt); see gemm_micro_kernel.h for why this file
// includes nothing else.

#include "matrix/gemm_micro_kernel.h"

#if CUMULON_HAVE_X86_KERNELS

#if !defined(__AVX2__) || !defined(__FMA__)
#error "gemm_avx2.cc must be compiled with -mavx2 -mfma"
#endif

#include <immintrin.h>

namespace cumulon {
namespace kernel_internal {
namespace {

struct Avx2 {
  using Vec = __m256d;
  using Mask = __m256i;
  static constexpr int kLanes = 4;
  static constexpr int kMr = kAvx2Mr;
  static_assert(2 * kLanes == kAvx2Nr);

  /// Lanes [0, n) set, n in [0, kLanes].
  static Mask FirstLanes(int64_t n) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(n),
                              _mm256_setr_epi64x(0, 1, 2, 3));
  }
  static Vec Load(const double* p) { return _mm256_load_pd(p); }
  static Vec LoadMasked(const double* p, Mask m) {
    return _mm256_maskload_pd(p, m);
  }
  static void StoreMasked(double* p, Mask m, Vec v) {
    _mm256_maskstore_pd(p, m, v);
  }
  static Vec Broadcast(const double* p) { return _mm256_broadcast_sd(p); }
  static Vec Set1(double x) { return _mm256_set1_pd(x); }
  static Vec Mul(Vec x, Vec y) { return _mm256_mul_pd(x, y); }
  static Vec Fma(Vec x, Vec y, Vec z) { return _mm256_fmadd_pd(x, y, z); }
};

}  // namespace

void GemmBlocksAvx2(const GemmBlocksArgs& args) { GemmBlocks<Avx2>(args); }

}  // namespace kernel_internal
}  // namespace cumulon

#endif  // CUMULON_HAVE_X86_KERNELS
