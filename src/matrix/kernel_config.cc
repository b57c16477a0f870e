#include "matrix/kernel_config.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "matrix/gemm_micro_kernel.h"

namespace cumulon {

namespace {

constexpr int64_t kFallbackL1d = 32 * 1024;
constexpr int64_t kFallbackL2 = 1024 * 1024;

/// Whether this build + CPU can execute the AVX2+FMA kernels at all.
bool CpuSupportsAvx2Fma() {
#if CUMULON_HAVE_X86_KERNELS
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

/// Whether it can also execute the AVX-512F Gemm.
bool CpuSupportsAvx512() {
#if CUMULON_HAVE_X86_KERNELS
  return CpuSupportsAvx2Fma() && __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

const char* KernelEnvOverride() {
  static const char* env = [] {
    const char* v = std::getenv("CUMULON_KERNEL");
    return (v != nullptr && v[0] != '\0') ? v : nullptr;
  }();
  return env;
}

int64_t RoundDownToMultiple(int64_t n, int64_t m) { return (n / m) * m; }

}  // namespace

const char* KernelModeName(KernelMode mode) {
  switch (mode) {
    case KernelMode::kAuto:
      return "auto";
    case KernelMode::kScalar:
      return "scalar";
    case KernelMode::kSimd:
      return "simd";
  }
  return "unknown";
}

bool ParseKernelMode(const std::string& name, KernelMode* out) {
  if (name == "auto") {
    *out = KernelMode::kAuto;
  } else if (name == "scalar") {
    *out = KernelMode::kScalar;
  } else if (name == "simd") {
    *out = KernelMode::kSimd;
  } else {
    return false;
  }
  return true;
}

KernelMode ResolveKernelModeWith(KernelMode requested, bool cpu_simd,
                                 const char* env) {
  // CUMULON_KERNEL=scalar emulates a machine without AVX2: the SIMD path
  // is unavailable no matter what callers request.
  bool simd_available = cpu_simd;
  if (env != nullptr && std::strcmp(env, "scalar") == 0) {
    simd_available = false;
  }
  if (requested == KernelMode::kScalar) return KernelMode::kScalar;
  return simd_available ? KernelMode::kSimd : KernelMode::kScalar;
}

bool SimdKernelAvailable() {
  static const bool available =
      ResolveKernelModeWith(KernelMode::kAuto, CpuSupportsAvx2Fma(),
                            KernelEnvOverride()) == KernelMode::kSimd;
  return available;
}

KernelMode ResolveKernelMode(KernelMode requested) {
  if (requested == KernelMode::kScalar) return KernelMode::kScalar;
  return SimdKernelAvailable() ? KernelMode::kSimd : KernelMode::kScalar;
}

const char* SimdWidthName(SimdWidth width) {
  return width == SimdWidth::kAvx512 ? "avx512" : "avx2";
}

bool CpuSupportsSimdWidth(SimdWidth width) {
  static const bool avx2 = CpuSupportsAvx2Fma();
  static const bool avx512 = CpuSupportsAvx512();
  return width == SimdWidth::kAvx512 ? avx512 : avx2;
}

SimdWidth DispatchedSimdWidth() {
  return CpuSupportsSimdWidth(SimdWidth::kAvx512) ? SimdWidth::kAvx512
                                                  : SimdWidth::kAvx2;
}

const char* GemmKernelName(KernelMode requested) {
  return ResolveKernelMode(requested) == KernelMode::kSimd
             ? SimdWidthName(DispatchedSimdWidth())
             : "scalar";
}

KernelConfig KernelConfig::FromCacheSizes(int64_t l1d_bytes,
                                          int64_t l2_bytes) {
  if (l1d_bytes <= 0) l1d_bytes = kFallbackL1d;
  if (l2_bytes <= 0) l2_bytes = kFallbackL2;

  KernelConfig cfg;

  // Scalar blocked kernels: three cache_block^2 operand blocks should
  // occupy at most a quarter of L2. Largest power of two in [16, 256].
  int64_t block = 16;
  while (block < 256 && 3 * (2 * block) * (2 * block) * 8 <= l2_bytes / 4) {
    block *= 2;
  }
  cfg.cache_block = block;

  // Packed Gemm: a micro-kernel call's op(A) rows and B panel (kc x
  // (Mr + Nr) doubles at the wider tile) should fit in three quarters of
  // L1d, so the rows stay resident across the B panels they meet...
  constexpr int64_t kTileDoubles =
      kernel_internal::kAvx512Mr + kernel_internal::kAvx512Nr;
  cfg.pack_kc =
      std::clamp<int64_t>(3 * l1d_bytes / 4 / (kTileDoubles * 8), 64, 512);
  // ...and the packed kc x nc block of B within half of L2.
  cfg.pack_nc = std::max<int64_t>(
      RoundDownToMultiple(l2_bytes / 2 / (cfg.pack_kc * 8),
                          kernel_internal::kAvx512Nr),
      kernel_internal::kAvx512Nr);
  return cfg;
}

KernelConfig KernelConfig::Detect() {
  int64_t l1d = 0;
  int64_t l2 = 0;
#if defined(_SC_LEVEL1_DCACHE_SIZE)
  l1d = static_cast<int64_t>(sysconf(_SC_LEVEL1_DCACHE_SIZE));
#endif
#if defined(_SC_LEVEL2_CACHE_SIZE)
  l2 = static_cast<int64_t>(sysconf(_SC_LEVEL2_CACHE_SIZE));
#endif
  return FromCacheSizes(l1d, l2);
}

namespace {
KernelConfig& MutableKernelConfig() {
  static KernelConfig config = KernelConfig::Detect();
  return config;
}
}  // namespace

const KernelConfig& GetKernelConfig() { return MutableKernelConfig(); }

void SetKernelConfig(const KernelConfig& config) {
  MutableKernelConfig() = config;
}

}  // namespace cumulon
