#ifndef CUMULON_MATRIX_TILE_IO_H_
#define CUMULON_MATRIX_TILE_IO_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "matrix/tile.h"

namespace cumulon {

/// On-the-wire tile format, matching Tile::SizeBytes() plus an integrity
/// footer:
///   int64 rows | int64 cols | rows*cols little-endian doubles | u64 sum
/// where `sum` is Checksum64 of everything before it. The checksum lets
/// the storage layer detect corrupted blocks (a real concern for a DFS;
/// HDFS checksums blocks the same way).
std::vector<uint8_t> SerializeTile(const Tile& tile);

/// Parses a serialized tile, validating the header, length, and checksum.
Result<Tile> DeserializeTile(const std::vector<uint8_t>& bytes);

/// XXH64 at seed 0 over a byte range: 8-byte little-endian words fold into
/// four independent lanes over 32-byte stripes, then XXH64's tail and
/// avalanche steps finish the hash. Each lane round is a bijection of its
/// input word, so a change confined to one word always changes that word's
/// lane, and a change confined to the last `size % 32` bytes always
/// changes the hash. Any other corruption goes unnoticed with probability
/// about 2^-64.
uint64_t Checksum64(const void* data, size_t size);

}  // namespace cumulon

#endif  // CUMULON_MATRIX_TILE_IO_H_
