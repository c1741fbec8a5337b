#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rdmasem::hw {

// MetadataCache — the RNIC's on-device SRAM cache for address-translation
// entries (PTEs), memory-region state and queue-pair state (§II-B2).
//
// Modeled as a single weighted-capacity LRU pool: each object class has a
// weight (a QP context is bigger than one PTE), and the pool evicts
// least-recently-used objects of any class once the total weight exceeds
// capacity. This reproduces the paper's observations that
//   * registered regions beyond ~4 MB lose the seq/rand symmetry (PTE
//     working set > SRAM),
//   * many MRs degrade access latency (~60 % at 10x MRs),
//   * many QPs degrade throughput (QP state thrashing).
//
// The LRU is exact and flat: entries live in a node array linked by
// 32-bit indices, located through an open-addressing index. Node and
// index storage only grow while the resident set reaches a new high, so
// once the cache has filled, access() and invalidate() never allocate.
class MetadataCache {
 public:
  enum class Kind : std::uint8_t { kPte = 0, kMr = 1, kQp = 2 };

  MetadataCache(std::size_t capacity_units, std::size_t pte_w,
                std::size_t mr_w, std::size_t qp_w);

  // Touches (kind, id). Returns true on hit; on miss the entry is inserted
  // and LRU victims are evicted to make room.
  bool access(Kind kind, std::uint64_t id);

  // Current occupancy in weight units.
  std::size_t occupancy() const { return occupancy_; }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  double hit_rate() const {
    const auto total = hits_ + misses_;
    return total ? static_cast<double>(hits_) / static_cast<double>(total)
                 : 1.0;
  }
  void reset_stats() { hits_ = misses_ = 0; }
  void clear();

  // Removes an entry if present (e.g. MR deregistration).
  void invalidate(Kind kind, std::uint64_t id);

 private:
  // Key packs kind into the top bits of the id.
  static std::uint64_t key(Kind kind, std::uint64_t id) {
    return (static_cast<std::uint64_t>(kind) << 62) | (id & ((1ULL << 62) - 1));
  }
  std::size_t weight_of(std::uint64_t k) const { return weight_[k >> 62]; }

  // Node 0 is the LRU list's sentinel (next = most recent, prev = least
  // recent); free nodes are chained through `next`.
  struct Node {
    std::uint64_t key;
    std::uint32_t prev;
    std::uint32_t next;
  };
  // node == 0 marks an empty slot.
  struct Slot {
    std::uint64_t key;
    std::uint32_t node;
  };

  // Fibonacci hashing: the top bits of the product depend on every key
  // bit, kind included.
  std::size_t home(std::uint64_t k) const {
    return static_cast<std::size_t>((k * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  // Slot holding `k`, or the empty slot that ends its probe sequence.
  std::size_t find(std::uint64_t k) const;
  void insert_front(std::uint64_t k);
  void remove(std::size_t slot);
  void unlink(std::uint32_t n);
  void link_front(std::uint32_t n);
  void grow_index();

  std::size_t capacity_;
  std::size_t weight_[3];
  std::size_t occupancy_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::vector<Node> nodes_;
  std::vector<Slot> index_;  // linear probing, power-of-two size
  unsigned shift_ = 0;       // 64 - log2(index_.size())
  std::uint32_t free_ = 0;
  std::size_t resident_ = 0;
};

}  // namespace rdmasem::hw
