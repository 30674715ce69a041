// UninitVector: a std::vector whose growth never zero-fills and whose large
// blocks are mapped straight from the kernel.
//
// The geometry's big arrays use it: the scene's patches and every index's
// packed arrays. resize() of a vector of scalars allocates without writing,
// so each page is first touched by the build task that fills it, not by a
// serial zero fill that the fill then overwrites.
//
// Blocks of at least kMapMinBytes (glibc's default mmap threshold) are
// mapped and unmapped here. malloc would map them too, but freeing a block
// it mapped raises its dynamic mmap threshold to that block's size (and its
// trim threshold to twice that), after which freed heap memory stays
// resident, or a later free trims the heap and the next allocations fault
// every page back in. A block mapped here never moves malloc's thresholds.
// ASan builds keep every block on malloc, so AddressSanitizer still
// bounds-checks the arrays.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace photon {

inline constexpr std::size_t kMapMinBytes = std::size_t{128} << 10;
bool maps_block(std::size_t bytes);
void* map_block(std::size_t bytes);  // throws std::bad_alloc
void unmap_block(void* block, std::size_t bytes) noexcept;

// An allocator whose value-initialising construct() default-initialises
// instead, and whose large blocks are mapped (map_block).
template <typename T>
struct UninitAllocator {
  using value_type = T;

  UninitAllocator() = default;
  template <typename U>
  UninitAllocator(const UninitAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (maps_block(n * sizeof(T))) return static_cast<T*>(map_block(n * sizeof(T)));
    return std::allocator<T>{}.allocate(n);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (maps_block(n * sizeof(T))) {
      unmap_block(p, n * sizeof(T));
    } else {
      std::allocator<T>{}.deallocate(p, n);
    }
  }
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
  template <typename U>
  bool operator==(const UninitAllocator<U>&) const noexcept {
    return true;
  }
};
template <typename T>
using UninitVector = std::vector<T, UninitAllocator<T>>;

}  // namespace photon
