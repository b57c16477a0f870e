#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "matrix/tile_io.h"
#include "matrix/tile_ops.h"

namespace cumulon {
namespace {

TEST(TileIoTest, RoundTripPreservesEverything) {
  Rng rng(51);
  Tile tile(13, 7);
  FillGaussian(&tile, &rng);
  auto bytes = SerializeTile(tile);
  auto back = DeserializeTile(bytes);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->rows(), 13);
  EXPECT_EQ(back->cols(), 7);
  auto diff = MaxAbsDiff(tile, *back);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff.value(), 0.0);
}

TEST(TileIoTest, SerializedSizeMatchesSizeBytesPlusChecksum) {
  Tile tile(10, 20);
  auto bytes = SerializeTile(tile);
  EXPECT_EQ(static_cast<int64_t>(bytes.size()),
            tile.SizeBytes() + static_cast<int64_t>(sizeof(uint64_t)));
}

TEST(TileIoTest, DetectsPayloadCorruption) {
  Rng rng(52);
  Tile tile(8, 8);
  FillGaussian(&tile, &rng);
  auto bytes = SerializeTile(tile);
  bytes[40] ^= 0xFF;  // flip a payload byte
  auto back = DeserializeTile(bytes);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInternal);
}

TEST(TileIoTest, DetectsHeaderCorruption) {
  Tile tile(4, 4);
  auto bytes = SerializeTile(tile);
  bytes[0] ^= 0x01;  // corrupt the row count
  EXPECT_FALSE(DeserializeTile(bytes).ok());
}

TEST(TileIoTest, DetectsTruncation) {
  Tile tile(4, 4);
  auto bytes = SerializeTile(tile);
  bytes.resize(bytes.size() - 3);
  EXPECT_FALSE(DeserializeTile(bytes).ok());
  EXPECT_FALSE(DeserializeTile({}).ok());
  EXPECT_FALSE(DeserializeTile({1, 2, 3}).ok());
}

TEST(TileIoTest, RejectsNonPositiveDimensions) {
  Tile tile(1, 1);
  auto bytes = SerializeTile(tile);
  // Zero out the rows field and re-stamp the checksum so only the
  // dimension check can fire.
  for (size_t i = 0; i < sizeof(int64_t); ++i) bytes[i] = 0;
  const uint64_t checksum =
      Checksum64(bytes.data(), bytes.size() - sizeof(uint64_t));
  std::memcpy(bytes.data() + bytes.size() - sizeof(uint64_t), &checksum,
              sizeof(checksum));
  auto back = DeserializeTile(bytes);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
}

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

TEST(TileIoTest, EveryHeaderAndPayloadBitFlipIsDetected) {
  Rng rng(53);
  Tile tile(8, 8);
  FillGaussian(&tile, &rng);
  const std::vector<uint8_t> clean = SerializeTile(tile);
  // 16-byte header plus 512-byte payload: 128 + 4,096 single-bit flips.
  const size_t covered_bits = (clean.size() - sizeof(uint64_t)) * 8;
  ASSERT_EQ(covered_bits, 4224u);
  int undetected = 0;
  for (size_t bit = 0; bit < covered_bits; ++bit) {
    std::vector<uint8_t> bytes = clean;
    bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    auto back = DeserializeTile(bytes);
    if (back.ok() || back.status().code() != StatusCode::kInternal) {
      ++undetected;
    }
  }
  EXPECT_EQ(undetected, 0);
}

}  // namespace
}  // namespace cumulon
