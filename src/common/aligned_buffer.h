#ifndef CUMULON_COMMON_ALIGNED_BUFFER_H_
#define CUMULON_COMMON_ALIGNED_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

/// Cache-line-aligned allocation for tile payloads and kernel packing
/// buffers. SIMD kernels (matrix/gemm_packed.cc) assume every tile payload
/// and packed panel starts on a 64-byte boundary; the tile cache and
/// prefetch window account memory in the allocator's actual padded
/// footprint, not the raw rows*cols*sizeof(double).
///
/// This header is the only place in `src/` allowed to call the raw aligned
/// allocation primitives (tools/cumulon_lint.py bans `new double[...]` /
/// `malloc` for buffers elsewhere, mirroring the raw-`std::mutex` ban).

namespace cumulon {

/// Alignment of every tile payload and packing buffer. 64 bytes = one cache
/// line on x86 = two AVX2 vectors, so a 4-wide double load at any packed
/// panel boundary is aligned and never splits a line.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Rounds `n` up to the next multiple of `align` (a power of two).
constexpr std::int64_t AlignUp(std::int64_t n, std::int64_t align) {
  return (n + align - 1) & ~(align - 1);
}

/// Actual heap footprint of an aligned payload of `bytes` bytes: the
/// allocator pads every request to whole cache lines so adjacent buffers
/// never share a line (no false sharing between worker threads writing
/// neighbouring tiles).
constexpr std::int64_t AlignedFootprintBytes(std::int64_t bytes) {
  return AlignUp(bytes, static_cast<std::int64_t>(kCacheLineBytes));
}

namespace aligned_internal {
/// Raw aligned allocation. Size is padded to whole cache lines; the pointer
/// is 64-byte aligned. Callers outside this header go through
/// AlignedAllocator / AlignedVector.
void* Allocate(std::size_t bytes);
void Deallocate(void* p, std::size_t bytes) noexcept;
}  // namespace aligned_internal

/// std::allocator drop-in whose allocations are cache-line aligned and
/// padded to whole lines. Used by Tile payload vectors and the kernel
/// packing buffers.
template <typename T>
class AlignedAllocator {
 public:
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(aligned_internal::Allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    aligned_internal::Deallocate(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const AlignedAllocator<U>&) const noexcept {
    return false;
  }
};

/// Vector whose payload is cache-line aligned; `v.data()` is 64-byte
/// aligned whenever non-null.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace cumulon

#endif  // CUMULON_COMMON_ALIGNED_BUFFER_H_
