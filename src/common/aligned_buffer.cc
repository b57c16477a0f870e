#include "common/aligned_buffer.h"

namespace cumulon {

namespace aligned_internal {

void* Allocate(std::size_t bytes) {
  const std::size_t padded = static_cast<std::size_t>(
      AlignedFootprintBytes(static_cast<std::int64_t>(bytes)));
  return ::operator new(padded == 0 ? kCacheLineBytes : padded,
                        std::align_val_t{kCacheLineBytes});
}

void Deallocate(void* p, std::size_t bytes) noexcept {
  const std::size_t padded = static_cast<std::size_t>(
      AlignedFootprintBytes(static_cast<std::int64_t>(bytes)));
  ::operator delete(p, padded == 0 ? kCacheLineBytes : padded,
                    std::align_val_t{kCacheLineBytes});
}

}  // namespace aligned_internal

}  // namespace cumulon
