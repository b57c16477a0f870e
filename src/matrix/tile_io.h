#ifndef CUMULON_MATRIX_TILE_IO_H_
#define CUMULON_MATRIX_TILE_IO_H_

#include <cstddef>
#include <cstdint>

namespace cumulon {

/// The tile integrity checksum: DfsTileStore stamps each tile payload with
/// it at Put and re-checks it on every DFS read that misses the node cache,
/// as HDFS checksums its blocks.
///
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
