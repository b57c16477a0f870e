#ifndef CUMULON_MATRIX_KERNEL_CONFIG_H_
#define CUMULON_MATRIX_KERNEL_CONFIG_H_

#include <cstdint>
#include <string>

/// Runtime kernel selection and blocking parameters for the tile kernels
/// (tile_ops.cc / gemm_packed.cc).
///
/// Two independent knobs:
///  - KernelMode picks the code path (bit-exact scalar oracle vs the packed
///    AVX2+FMA kernel), resolved at runtime from CPUID plus the
///    CUMULON_KERNEL environment override (`scalar` | `simd` | `auto`).
///  - KernelConfig holds the blocking parameters, derived once at startup
///    from the detected cache sizes (sysconf) with conservative fallbacks.

namespace cumulon {

/// Which kernel implementation to run.
///  - kAuto:   packed SIMD when the CPU supports AVX2+FMA, scalar otherwise.
///  - kScalar: the register-blocked scalar kernel — the bit-exactness
///             oracle (plain i-k-j accumulation order, mul+add rounding).
///  - kSimd:   the packed AVX2+FMA kernel; falls back to scalar when the
///             CPU lacks AVX2/FMA. Reorder-safe: each C element still
///             receives its k terms in ascending order, but FMA fuses the
///             multiply-add rounding, so results are tolerance-equal (not
///             bit-equal) to the oracle. Element-wise / column-aggregate
///             SIMD paths use no FMA and are bit-identical.
enum class KernelMode { kAuto, kScalar, kSimd };

const char* KernelModeName(KernelMode mode);

/// Parses "auto" / "scalar" / "simd" (case-sensitive). Returns false (and
/// leaves *out alone) on anything else.
bool ParseKernelMode(const std::string& name, KernelMode* out);

/// True when this CPU can run the packed AVX2+FMA kernel AND the
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

/// Micro-kernel register tile, baked into the compiled AVX2 kernel: 6 rows
/// x 8 columns (12 YMM accumulators + 2 B vectors + 1 A broadcast = 15 of
/// 16 registers). The packing panel strides below are multiples of these.
inline constexpr int kPackMr = 6;
inline constexpr int kPackNr = 8;

/// Cache-blocking parameters for the tile kernels. Defaults are derived
/// from the machine's cache sizes at startup (FromCacheSizes); all buffers
/// they size come from the cache-line-aligned allocator.
struct KernelConfig {
  /// Block edge for the scalar blocked kernels (Gemm oracle, transpose).
  /// Replaces the old file-scope `kBlock = 64` in tile_ops.cc.
  int64_t cache_block = 64;

  /// Packed-kernel panel sizes (BLIS-style): a kc x nc panel of B is packed
  /// into 8-wide column panels sized to stay L1-resident, an mc x kc block
  /// of A into 6-wide row panels sized for L2.
  int64_t pack_mc = 252;   // multiple of kPackMr
  int64_t pack_kc = 256;
  int64_t pack_nc = 4096;  // multiple of kPackNr

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
