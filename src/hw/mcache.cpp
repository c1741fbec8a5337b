#include "hw/mcache.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/assert.hpp"

namespace rdmasem::hw {

namespace {
constexpr std::size_t kInitialSlots = 16;
constexpr unsigned kInitialShift = 64 - std::countr_zero(kInitialSlots);
}  // namespace

MetadataCache::MetadataCache(std::size_t capacity_units, std::size_t pte_w,
                             std::size_t mr_w, std::size_t qp_w)
    : capacity_(capacity_units),
      weight_{pte_w, mr_w, qp_w},
      nodes_(1, Node{0, 0, 0}),
      index_(kInitialSlots, Slot{0, 0}),
      shift_(kInitialShift) {}

bool MetadataCache::access(Kind kind, std::uint64_t id) {
  const std::uint64_t k = key(kind, id);
  const std::size_t s = find(k);
  if (const std::uint32_t n = index_[s].node; n != 0) {
    ++hits_;
    if (nodes_[0].next != n) {
      unlink(n);
      link_front(n);
    }
    return true;
  }
  ++misses_;
  const std::size_t w = weight_[static_cast<std::size_t>(kind)];
  // Evict from the LRU tail until the new entry fits. A single object
  // heavier than the whole cache is pinned-resident (never inserted).
  if (w > capacity_) return false;
  while (occupancy_ + w > capacity_) {
    const std::uint32_t victim = nodes_[0].prev;
    RDMASEM_CHECK(victim != 0);
    remove(find(nodes_[victim].key));
  }
  insert_front(k);
  return false;
}

void MetadataCache::invalidate(Kind kind, std::uint64_t id) {
  const std::size_t s = find(key(kind, id));
  if (index_[s].node != 0) remove(s);
}

void MetadataCache::clear() {
  nodes_.resize(1);
  nodes_[0] = Node{0, 0, 0};
  std::fill(index_.begin(), index_.end(), Slot{0, 0});
  free_ = 0;
  resident_ = 0;
  occupancy_ = 0;
}

std::size_t MetadataCache::find(std::uint64_t k) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t s = home(k);
  while (index_[s].node != 0 && index_[s].key != k) s = (s + 1) & mask;
  return s;
}

void MetadataCache::insert_front(std::uint64_t k) {
  if ((resident_ + 1) * 2 > index_.size()) grow_index();
  std::uint32_t n = free_;
  if (n != 0) {
    free_ = nodes_[n].next;
  } else {
    RDMASEM_CHECK(nodes_.size() < std::numeric_limits<std::uint32_t>::max());
    n = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{0, 0, 0});
  }
  nodes_[n].key = k;
  link_front(n);
  index_[find(k)] = Slot{k, n};
  ++resident_;
  occupancy_ += weight_of(k);
}

// Backward-shift deletion: later members of the probe run move into the
// hole when it lies between their home slot and where they sit, so no
// tombstones are left behind.
void MetadataCache::remove(std::size_t slot) {
  const std::uint32_t n = index_[slot].node;
  occupancy_ -= weight_of(index_[slot].key);
  unlink(n);
  nodes_[n].next = free_;
  free_ = n;
  --resident_;

  const std::size_t mask = index_.size() - 1;
  std::size_t hole = slot;
  for (std::size_t j = (slot + 1) & mask; index_[j].node != 0;
       j = (j + 1) & mask) {
    const std::size_t h = home(index_[j].key);
    if (((j - h) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole].node = 0;
}

void MetadataCache::unlink(std::uint32_t n) {
  nodes_[nodes_[n].prev].next = nodes_[n].next;
  nodes_[nodes_[n].next].prev = nodes_[n].prev;
}

void MetadataCache::link_front(std::uint32_t n) {
  const std::uint32_t old = nodes_[0].next;
  nodes_[n].prev = 0;
  nodes_[n].next = old;
  nodes_[old].prev = n;
  nodes_[0].next = n;
}

void MetadataCache::grow_index() {
  index_.assign(index_.size() * 2, Slot{0, 0});
  --shift_;
  for (std::uint32_t n = nodes_[0].next; n != 0; n = nodes_[n].next)
    index_[find(nodes_[n].key)] = Slot{nodes_[n].key, n};
}

}  // namespace rdmasem::hw
