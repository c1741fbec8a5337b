#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "util/assert.hpp"

namespace rdmasem::verbs {

// Base of the simulated RDMA address space (see Buffer::addr). Sits at
// 1<<46, far from the host heap/mmap regions, so raw-pointer MR
// registrations can never alias a simulated address.
inline constexpr std::uint64_t kSimVaBase = 1ull << 46;

// Buffer — aligned host memory suitable for registration as a memory
// region (the paper allocates RDMA-enabled memory with posix_memalign).
//
// The address handed to the RDMA layer (addr()) is NOT the host pointer:
// it comes from a deterministic, monotonically-growing simulated address
// space. The translation cache keys on page numbers and the DRAM model on
// row numbers, so address identity is model-visible state — deriving it
// from the host heap would leak the allocator's reuse pattern (and ASLR)
// into simulation results. Simulated addresses are never recycled, every
// buffer is row (8 KB) aligned, and consecutive buffers are separated by
// a guard row, so distinct buffers never share a page, row or cache line.
//
// Storage below 32 MiB comes from the heap and is cleared with memset.
// From 32 MiB up it is an anonymous mapping, huge-page advised and
// pre-faulted, whose pages the kernel has already zeroed; see buffer.cpp.
class Buffer {
 public:
  Buffer() = default;
  // Zero-filled storage of `size` bytes, host-aligned to `alignment`.
  explicit Buffer(std::size_t size, std::size_t alignment = 8192);
  Buffer(Buffer&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)),
        mapped_(std::exchange(o.mapped_, 0)),
        sim_addr_(std::exchange(o.sim_addr_, 0)) {}
  Buffer& operator=(Buffer&& o) noexcept {
    if (this != &o) {
      release();
      data_ = std::exchange(o.data_, nullptr);
      size_ = std::exchange(o.size_, 0);
      mapped_ = std::exchange(o.mapped_, 0);
      sim_addr_ = std::exchange(o.sim_addr_, 0);
    }
    return *this;
  }
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;
  ~Buffer() { release(); }

  std::byte* data() { return data_; }
  const std::byte* data() const { return data_; }
  std::size_t size() const { return size_; }
  std::uint64_t addr() const { return sim_addr_; }
  std::span<std::byte> span() { return {data_, size_}; }
  std::span<const std::byte> span() const { return {data_, size_}; }

  // Gives this storage the simulated address that constructing a new
  // Buffer of the same size and `alignment` would draw now, and keeps the
  // bytes as they are. For callers that recycle storage whose contents no
  // one reads (bench::BufferPool): the sequence of simulated addresses, and
  // with it every model input, stays that of constructing fresh buffers.
  void readdress(std::size_t alignment = 8192);

  template <typename T>
  T* as(std::size_t byte_offset = 0) {
    RDMASEM_CHECK(byte_offset + sizeof(T) <= size_);
    return reinterpret_cast<T*>(data_ + byte_offset);
  }

 private:
  void release() noexcept;

  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t mapped_ = 0;  // length of an anonymous mapping; 0 = heap
  std::uint64_t sim_addr_ = 0;
};

}  // namespace rdmasem::verbs
