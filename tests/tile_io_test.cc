#include <string>

#include <gtest/gtest.h>

#include "matrix/tile_io.h"

namespace cumulon {
namespace {

TEST(TileIoTest, Checksum64MatchesReferenceXxh64) {
  // Reference XXH64 (seed 0) values. "" is the bare avalanche, "a" and
  // "abc" the 1-byte tail, 12 bytes the 8- and 4-byte tails, the 43-byte
  // sentence one stripe plus 8- and 1-byte tails, and the 512 bytes of
  // doubles the four-lane stripe loop alone.
  EXPECT_EQ(Checksum64(nullptr, 0), 0xef46db3751d8e999ULL);
  EXPECT_EQ(Checksum64("a", 1), 0xd24ec4f1a98c6e5bULL);
  EXPECT_EQ(Checksum64("abc", 3), 0x44bc2cf5ad770999ULL);
  EXPECT_EQ(Checksum64("abcdefghijkl", 12), 0x4b09b7d3a233d4b3ULL);
  const std::string fox = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(Checksum64(fox.data(), fox.size()), 0x0b242d361fda71bcULL);
  double values[64];
  for (int i = 0; i < 64; ++i) values[i] = i + 1.0;
  EXPECT_EQ(Checksum64(values, sizeof(values)), 0xd3a530955b1e4ae8ULL);
}

}  // namespace
}  // namespace cumulon
