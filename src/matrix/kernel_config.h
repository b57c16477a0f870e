#ifndef CUMULON_MATRIX_KERNEL_CONFIG_H_
#define CUMULON_MATRIX_KERNEL_CONFIG_H_

#include <cstdint>
#include <string>

/// Runtime kernel selection and blocking parameters for the tile kernels
/// (tile_ops.cc / gemm_packed.cc).
///
/// Two independent knobs:
///  - KernelMode picks the code path (bit-exact scalar oracle vs the packed
///    SIMD kernels), resolved at runtime from CPUID plus the CUMULON_KERNEL
///    environment override (`scalar` | `simd` | `auto`). The SIMD Gemm runs
///    at the widest vector width CPUID reports (SimdWidth).
///  - KernelConfig holds the blocking parameters, derived once at startup
///    from the detected cache sizes (sysconf) with conservative fallbacks.

namespace cumulon {

/// Which kernel implementation to run.
///  - kAuto:   packed SIMD when the CPU supports AVX2+FMA, scalar otherwise.
///  - kScalar: the register-blocked scalar kernel — the bit-exactness
///             oracle (plain i-k-j accumulation order, mul+add rounding).
///  - kSimd:   the packed SIMD kernels; falls back to scalar when the CPU
///             lacks AVX2/FMA. Gemm runs at DispatchedSimdWidth().
///             Reorder-safe: each C element still receives its k terms in
///             ascending order, but FMA fuses the multiply-add rounding, so
///             results are tolerance-equal (not bit-equal) to the oracle —
///             and bit-equal across widths. Element-wise / column-aggregate
///             SIMD paths use no FMA and are bit-identical.
enum class KernelMode { kAuto, kScalar, kSimd };

const char* KernelModeName(KernelMode mode);

/// Parses "auto" / "scalar" / "simd" (case-sensitive). Returns false (and
/// leaves *out alone) on anything else.
bool ParseKernelMode(const std::string& name, KernelMode* out);

/// True when this CPU can run the packed SIMD kernels (AVX2+FMA) AND the
/// CUMULON_KERNEL override does not force `scalar`. Setting
/// CUMULON_KERNEL=scalar therefore emulates a no-AVX2 machine for the
/// whole process (the scalar-dispatch CI lane).
bool SimdKernelAvailable();

/// Resolves a requested mode to the path that will actually run:
/// kAuto -> kSimd when available else kScalar; kSimd falls back to kScalar
/// when unavailable; kScalar is always honored.
KernelMode ResolveKernelMode(KernelMode requested);

/// Pure resolution logic, exposed for tests: `env` is the CUMULON_KERNEL
/// value (nullptr/empty = unset), `cpu_simd` whether CPUID reports
/// AVX2+FMA.
KernelMode ResolveKernelModeWith(KernelMode requested, bool cpu_simd,
                                 const char* env);

/// Vector width of the packed Gemm (gemm_packed.h): AVX2+FMA (__m256d) or
/// AVX-512F (__m512d). Both run the same micro-kernel template and give the
/// same bits.
enum class SimdWidth { kAvx2, kAvx512 };

/// "avx2" / "avx512".
const char* SimdWidthName(SimdWidth width);

/// True when CPUID reports what `width` needs (AVX2+FMA; AVX-512F) and this
/// binary contains the kernels. Ignores CUMULON_KERNEL: it says which widths
/// can be called directly, not which one dispatch picks.
bool CpuSupportsSimdWidth(SimdWidth width);

/// The width kSimd / kAuto run Gemm at: the widest the CPU supports.
/// Meaningful only when SimdKernelAvailable().
SimdWidth DispatchedSimdWidth();

/// The Gemm kernel `requested` resolves to on this host: "avx512", "avx2"
/// or "scalar". A calibration records it (CalibrationResult::kernel), so a
/// stored one is only reused on the same kernel.
const char* GemmKernelName(KernelMode requested);

/// Cache-blocking parameters for the tile kernels. Defaults are derived
/// from the machine's cache sizes at startup (FromCacheSizes); all buffers
/// they size come from the cache-line-aligned allocator.
struct KernelConfig {
  /// Block edge for the scalar blocked kernels (Gemm oracle, transpose).
  /// Replaces the old file-scope `kBlock = 64` in tile_ops.cc.
  int64_t cache_block = 64;

  /// Packed-Gemm blocking: B is packed pack_kc x pack_nc at a time (op(A)
  /// is read in place, so it has no block). pack_kc keeps a micro-kernel
  /// call's op(A) rows and B panel in L1d; pack_nc (a multiple of either
  /// width's register-tile columns) keeps the packed B block in L2.
  int64_t pack_kc = 192;
  int64_t pack_nc = 672;

  /// Derives blocking from cache sizes (bytes; <=0 picks the fallback of
  /// 32 KiB L1d / 1 MiB L2).
  static KernelConfig FromCacheSizes(int64_t l1d_bytes, int64_t l2_bytes);

  /// FromCacheSizes over the sizes sysconf reports for this machine.
  static KernelConfig Detect();
};

/// Process-wide config, detected on first use.
const KernelConfig& GetKernelConfig();

/// Replaces the process-wide config (tests/benches). Not synchronized
/// against concurrently running kernels — call before spawning workers.
void SetKernelConfig(const KernelConfig& config);

}  // namespace cumulon

#endif  // CUMULON_MATRIX_KERNEL_CONFIG_H_
