#include "verbs/buffer.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "util/sanitizer.hpp"

// Linux 5.14+; older kernels reject the advice with EINVAL and the pages
// fault in on first touch instead.
#ifndef MADV_POPULATE_WRITE
#define MADV_POPULATE_WRITE 23
#endif

namespace rdmasem::verbs {

namespace {

// glibc's DEFAULT_MMAP_THRESHOLD_MAX on 64-bit. Below it malloc recycles
// heap pages that stay faulted in from one buffer to the next, so a
// memset is the only zeroing pass. From it up malloc maps fresh pages the
// kernel zeroes on first touch, and a memset would zero them a second
// time, one page fault at a time.
constexpr std::size_t kMapThreshold = std::size_t{32} << 20;
constexpr std::size_t kHugePage = std::size_t{2} << 20;

// Process-wide bump allocator for the simulated address space. Addresses
// depend only on the sequence of Buffer constructions, which the
// single-threaded deterministic simulation fully determines.
std::uint64_t take_sim_va(std::size_t rounded, std::size_t alignment) {
  static std::uint64_t cursor = kSimVaBase;
  if (alignment < 8192) alignment = 8192;
  cursor = (cursor + alignment - 1) / alignment * alignment;
  const std::uint64_t va = cursor;
  cursor += rounded + 8192;  // guard row between buffers
  return va;
}

// Maps `len` (a page multiple) bytes of zeroed, pre-faulted memory at a
// huge-page-aligned address, so transparent huge pages can back it and
// faulting it in takes one fault per 2 MiB instead of per 4 KiB.
std::byte* map_zeroed(std::size_t len, std::size_t alignment) {
  const std::size_t align = std::max(alignment, kHugePage);
  void* raw = ::mmap(nullptr, len + align, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  RDMASEM_CHECK_MSG(raw != MAP_FAILED, "buffer mapping failed");
  const auto base = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t start = (base + align - 1) / align * align;
  const std::uintptr_t end = base + len + align;
  if (start > base) ::munmap(raw, start - base);
  if (end > start + len)
    ::munmap(reinterpret_cast<void*>(start + len), end - (start + len));
  void* p = reinterpret_cast<void*>(start);
  // Both calls are advice: without THP the range stays on 4 KiB pages,
  // and without populate its pages fault in on first touch.
  (void)::madvise(p, len, MADV_HUGEPAGE);
  (void)::madvise(p, len, MADV_POPULATE_WRITE);
  return static_cast<std::byte*>(p);
}

}  // namespace

Buffer::Buffer(std::size_t size, std::size_t alignment) : size_(size) {
  if (size == 0) return;
  // Round the allocation size up to the alignment (aligned_alloc
  // requirement).
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  // Under ASan every buffer stays on the heap so the sanitizer's
  // allocator places redzones around it and tracks its lifetime.
  if (!RDMASEM_ASAN && rounded >= kMapThreshold) {
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    mapped_ = (rounded + page - 1) / page * page;
    data_ = map_zeroed(mapped_, alignment);
  } else {
    data_ = static_cast<std::byte*>(std::aligned_alloc(alignment, rounded));
    RDMASEM_CHECK_MSG(data_ != nullptr, "buffer allocation failed");
    std::memset(data_, 0, rounded);
  }
  sim_addr_ = take_sim_va(rounded, alignment);
}

void Buffer::release() noexcept {
  if (mapped_ != 0)
    ::munmap(data_, mapped_);
  else
    std::free(data_);
  data_ = nullptr;
  mapped_ = 0;
}

}  // namespace rdmasem::verbs
