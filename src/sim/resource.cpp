#include "sim/resource.hpp"

#include <algorithm>

namespace rdmasem::sim {

Resource::Resource(Engine& engine, std::uint32_t servers, std::string name)
    : engine_(engine), servers_(servers), name_(std::move(name)) {
  RDMASEM_CHECK_MSG(servers > 0, "resource needs at least one server");
  free_at_.assign(servers, 0);
  std::make_heap(free_at_.begin(), free_at_.end(), std::greater<>{});
}

Grant Resource::reserve_grant(Duration service) {
  const Time now = engine_.now();
  Time start;
  if (servers_ == 1) {
    // Every EU, DMA engine, link and memory channel: the heap is one slot.
    start = std::max(now, free_at_[0]);
    free_at_[0] = start + service;
  } else {
    std::pop_heap(free_at_.begin(), free_at_.end(), std::greater<>{});
    start = std::max(now, free_at_.back());
    free_at_.back() = start + service;
    std::push_heap(free_at_.begin(), free_at_.end(), std::greater<>{});
  }
  const Time completion = start + service;
  ++requests_;
  busy_ += service;
  const Duration wait = start - now;
  if (wait > 0) {
    wait_ += wait;
    ++waited_;
    wait_hist_.add(wait / kNanosecond);
  }
  return {completion, wait};
}

Time Resource::peek(Duration service) const {
  const Time earliest = free_at_.front();  // heap min
  return std::max(engine_.now(), earliest) + service;
}

double Resource::utilization() const {
  const Time t = engine_.now();
  if (t == 0) return 0.0;
  return static_cast<double>(busy_) /
         (static_cast<double>(t) * static_cast<double>(servers_));
}

void Resource::reset_stats() {
  requests_ = 0;
  busy_ = 0;
  wait_ = 0;
  waited_ = 0;
  wait_hist_.reset();
}

}  // namespace rdmasem::sim
