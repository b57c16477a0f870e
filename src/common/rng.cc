#include "common/rng.h"

#include <cmath>

#include "common/logging.h"

namespace cumulon {

namespace {
// SplitMix64, used to expand the seed into xoshiro state.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97f4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// One Box–Muller pair in place: (u1, u2) -> (r cos θ, r sin θ).
void BoxMullerPair(double* pair) {
  const double r = std::sqrt(-2.0 * std::log(pair[0]));
  const double theta = 2.0 * M_PI * pair[1];
  pair[0] = r * std::cos(theta);
  pair[1] = r * std::sin(theta);
}
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextUint64(uint64_t bound) {
  CUMULON_CHECK_GT(bound, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    const uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  CUMULON_CHECK_LE(lo, hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  // span == 0 means the full int64 range; fall back to raw bits.
  if (span == 0) return static_cast<int64_t>(NextUint64());
  return lo + static_cast<int64_t>(NextUint64(span));
}

double Rng::NextDouble() {
  // 53 random bits into [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::NextDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  double value = 0.0;
  DrawGaussianUniforms(&value, 1);
  return value;
}

int64_t Rng::DrawGaussianUniforms(double* out, int64_t n) {
  if (n <= 0) return 0;
  int64_t first = 0;
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    out[first++] = cached_gaussian_;
  }
  // u1 == 0 is redrawn: ln 0 would make r infinite.
  auto draw_pair = [this](double* pair) {
    pair[0] = 0.0;
    while (pair[0] == 0.0) pair[0] = NextDouble();
    pair[1] = NextDouble();
  };
  int64_t i = first;
  for (; i + 1 < n; i += 2) draw_pair(out + i);
  if (i < n) {
    double pair[2];
    draw_pair(pair);
    BoxMullerPair(pair);
    out[i] = pair[0];
    cached_gaussian_ = pair[1];
    have_cached_gaussian_ = true;
  }
  return first;
}

void Rng::BoxMullerPairs(double* out, int64_t n) {
  for (int64_t i = 0; i + 1 < n; i += 2) BoxMullerPair(out + i);
}

double Rng::NextLogNormal(double mu, double sigma) {
  return std::exp(mu + sigma * NextGaussian());
}

Rng Rng::Fork() { return Rng(NextUint64()); }

}  // namespace cumulon
