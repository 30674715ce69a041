#include "core/uninit_vector.hpp"

#include <sys/mman.h>

namespace photon {

namespace {

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAddressSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kAddressSanitized = true;
#else
constexpr bool kAddressSanitized = false;
#endif
#else
constexpr bool kAddressSanitized = false;
#endif

}  // namespace

bool maps_block(std::size_t bytes) { return !kAddressSanitized && bytes >= kMapMinBytes; }

void* map_block(std::size_t bytes) {
  void* block = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (block == MAP_FAILED) throw std::bad_alloc();
  // Each fresh page faults on first touch, and a scene load or an index
  // build touches all of its blocks fresh. A block spanning huge pages asks
  // for them (a hint the kernel may ignore): one fault per 2 MiB instead of
  // one per 4 KiB. On a 4-core VM a 4 KiB fault cost about 2 us whether one
  // thread or four took the faults, so touching a fresh 25 MB block took
  // 12 ms, and about 2 ms with the hint. The benchmark office's setup needs
  // both the hint and the mapped patch array (Scene): with either alone its
  // generator took 25-28 ms per setup instead of 11.
  constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;
  if (bytes >= kHugePageBytes) madvise(block, bytes, MADV_HUGEPAGE);
  return block;
}

void unmap_block(void* block, std::size_t bytes) noexcept { munmap(block, bytes); }

}  // namespace photon
