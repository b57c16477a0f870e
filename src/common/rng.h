#ifndef CUMULON_COMMON_RNG_H_
#define CUMULON_COMMON_RNG_H_

#include <cstdint>

namespace cumulon {

/// Deterministic, fast pseudo-random number generator (xoshiro256**).
/// All randomness in the system (data generation, replica placement,
/// simulated task-time noise) flows through explicitly seeded Rng instances
/// so that experiments are reproducible run to run.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Uniform over all 64-bit values.
  uint64_t NextUint64();

  /// Uniform in [0, bound). bound must be > 0.
  uint64_t NextUint64(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Standard normal via Box–Muller: each (u1, u2) pair of uniforms gives
  /// r cos θ, returned, and r sin θ, cached for the next call. It is the
  /// one-value case of the two halves below, which bulk fills use directly,
  /// so FillGaussian and GenerateMatrix reproduce this stream exactly.
  double NextGaussian();

  /// Draw half of NextGaussian for n values at once: writes to out[0, n)
  /// what the next n NextGaussian() calls would consume, and leaves this Rng
  /// exactly as those calls would. Returns p, where the raw pairs start:
  ///  - out[0, p) is final: p is 1 when a cached value was pending, else 0;
  ///  - out[p, n) holds raw (u1, u2) pairs, u1 > 0, for
  ///    BoxMullerPairs(out + p, n - p) to turn into values;
  ///  - when n - p is odd, out[n - 1] is already final: its pair straddles
  ///    the end of `out`, so it was transformed here and its sine cached.
  int64_t DrawGaussianUniforms(double* out, int64_t n);

  /// Transform half: replaces each of the n / 2 raw pairs (u1, u2) at the
  /// front of out[0, n) by (r cos θ, r sin θ), with r = sqrt(-2 ln u1) and
  /// θ = 2π u2; an odd last element is left as it is. Touches no Rng, so
  /// threads may transform disjoint buffers concurrently.
  static void BoxMullerPairs(double* out, int64_t n);

  /// Lognormal with the given underlying mu/sigma. Useful for simulated
  /// task-duration noise (heavy right tail, like real cluster stragglers).
  double NextLogNormal(double mu, double sigma);

  /// Forks an independent stream; deterministic given this Rng's state.
  Rng Fork();

 private:
  uint64_t s_[4];
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace cumulon

#endif  // CUMULON_COMMON_RNG_H_
