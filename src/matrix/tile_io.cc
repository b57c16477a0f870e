#include "matrix/tile_io.h"

#include <bit>
#include <cstring>

namespace cumulon {

namespace {

constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

// Little-endian 8- or 4-byte word at `p`, widened to 64 bits.
template <typename Word>
uint64_t Load(const uint8_t* p) {
  Word v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = sizeof(v) == 8 ? __builtin_bswap64(v) : __builtin_bswap32(v);
  }
  return v;
}

uint64_t Round(uint64_t acc, uint64_t word) {
  return std::rotl(acc + word * kPrime2, 31) * kPrime1;
}

uint64_t MergeRound(uint64_t acc, uint64_t lane) {
  return (acc ^ Round(0, lane)) * kPrime1 + kPrime4;
}

}  // namespace

uint64_t Checksum64(const void* data, size_t size) {
  const auto* p = static_cast<const uint8_t*>(data);
  const uint8_t* const end = p + size;
  uint64_t h = kPrime5;  // the start value for inputs under one stripe
  if (size >= 32) {
    uint64_t v1 = kPrime1 + kPrime2, v2 = kPrime2, v3 = 0, v4 = 0 - kPrime1;
    for (const uint8_t* limit = end - 32; p <= limit; p += 32) {
      v1 = Round(v1, Load<uint64_t>(p));
      v2 = Round(v2, Load<uint64_t>(p + 8));
      v3 = Round(v3, Load<uint64_t>(p + 16));
      v4 = Round(v4, Load<uint64_t>(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = MergeRound(MergeRound(MergeRound(MergeRound(h, v1), v2), v3), v4);
  }
  h += size;
  for (; end - p >= 8; p += 8) {
    h = std::rotl(h ^ Round(0, Load<uint64_t>(p)), 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h = std::rotl(h ^ (Load<uint32_t>(p) * kPrime1), 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) h = std::rotl(h ^ (*p * kPrime5), 11) * kPrime1;
  h = (h ^ (h >> 33)) * kPrime2;
  h = (h ^ (h >> 29)) * kPrime3;
  return h ^ (h >> 32);
}

}  // namespace cumulon
