#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <unordered_map>
#include <vector>

#include "hw/coherence.hpp"
#include "hw/dram.hpp"
#include "hw/mcache.hpp"
#include "hw/numa.hpp"
#include "hw/params.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace hw = rdmasem::hw;
namespace sim = rdmasem::sim;
using Kind = hw::MetadataCache::Kind;

TEST(ModelParams, SerTimeMatchesLinkRate) {
  // 1000 bytes at 40 Gbps = 200 ns.
  EXPECT_EQ(hw::ModelParams::ser_time(1000, 40.0), sim::ns(200));
  EXPECT_EQ(hw::ModelParams::ser_time(0, 40.0), 0u);
}

TEST(ModelParams, WireTimeIncludesHeader) {
  hw::ModelParams p;
  EXPECT_GT(p.wire_time(0), 0u);  // headers still serialize
  EXPECT_EQ(p.wire_time(100) - p.wire_time(0),
            hw::ModelParams::ser_time(100, p.link_gbps));
}

TEST(ModelParams, MemcpyTimeHasFixedOverhead) {
  hw::ModelParams p;
  EXPECT_GE(p.memcpy_time(1), p.cpu_memcpy_overhead);
  EXPECT_GT(p.memcpy_time(1 << 20), p.memcpy_time(1 << 10));
}

// ---------------------------------------------------------------------------
// MetadataCache

TEST(MetadataCache, HitAfterInsert) {
  hw::MetadataCache c(16, 1, 2, 4);
  EXPECT_FALSE(c.access(Kind::kPte, 1));  // cold miss
  EXPECT_TRUE(c.access(Kind::kPte, 1));   // now resident
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(MetadataCache, KindsDoNotCollide) {
  hw::MetadataCache c(16, 1, 2, 4);
  c.access(Kind::kPte, 7);
  EXPECT_FALSE(c.access(Kind::kQp, 7));  // distinct object, distinct key
}

TEST(MetadataCache, LruEvictionOrder) {
  hw::MetadataCache c(3, 1, 2, 4);  // three PTE slots
  c.access(Kind::kPte, 1);
  c.access(Kind::kPte, 2);
  c.access(Kind::kPte, 3);
  c.access(Kind::kPte, 1);          // refresh 1; LRU order now 2,3,1
  c.access(Kind::kPte, 4);          // evicts 2
  EXPECT_TRUE(c.access(Kind::kPte, 1));
  EXPECT_TRUE(c.access(Kind::kPte, 3));
  EXPECT_FALSE(c.access(Kind::kPte, 2));  // was evicted
}

TEST(MetadataCache, WeightedOccupancy) {
  hw::MetadataCache c(8, 1, 2, 4);
  c.access(Kind::kQp, 1);   // weight 4
  c.access(Kind::kMr, 1);   // weight 2
  c.access(Kind::kPte, 1);  // weight 1
  EXPECT_EQ(c.occupancy(), 7u);
  c.access(Kind::kQp, 2);   // needs 4 -> evicts LRU until it fits
  EXPECT_LE(c.occupancy(), 8u);
}

TEST(MetadataCache, WorkingSetBeyondCapacityThrashes) {
  hw::MetadataCache c(64, 1, 2, 4);
  // Cycle through 128 PTEs repeatedly: pure LRU on a loop > capacity
  // never hits.
  for (int round = 0; round < 4; ++round)
    for (std::uint64_t i = 0; i < 128; ++i) c.access(Kind::kPte, i);
  EXPECT_EQ(c.hits(), 0u);
}

TEST(MetadataCache, WorkingSetWithinCapacityAllHits) {
  hw::MetadataCache c(64, 1, 2, 4);
  for (std::uint64_t i = 0; i < 32; ++i) c.access(Kind::kPte, i);
  c.reset_stats();
  for (int round = 0; round < 4; ++round)
    for (std::uint64_t i = 0; i < 32; ++i) c.access(Kind::kPte, i);
  EXPECT_DOUBLE_EQ(c.hit_rate(), 1.0);
}

TEST(MetadataCache, InvalidateRemoves) {
  hw::MetadataCache c(16, 1, 2, 4);
  c.access(Kind::kMr, 5);
  c.invalidate(Kind::kMr, 5);
  EXPECT_EQ(c.occupancy(), 0u);
  EXPECT_FALSE(c.access(Kind::kMr, 5));
}

TEST(MetadataCache, OversizedObjectNeverInserted) {
  hw::MetadataCache c(2, 1, 2, 4);  // QP weight 4 > capacity 2
  EXPECT_FALSE(c.access(Kind::kQp, 1));
  EXPECT_FALSE(c.access(Kind::kQp, 1));  // still a miss, no crash
  EXPECT_EQ(c.occupancy(), 0u);
}

TEST(MetadataCache, ClearEmpties) {
  hw::MetadataCache c(16, 1, 2, 4);
  c.access(Kind::kPte, 1);
  c.clear();
  EXPECT_EQ(c.occupancy(), 0u);
  EXPECT_FALSE(c.access(Kind::kPte, 1));
}

namespace {

// Reference model: the std::list + unordered_map LRU the flat
// MetadataCache replaced. The differential tests below hold the flat
// cache to its replacement order, weighted occupancy and hit/miss counts.
class RefMetadataCache {
 public:
  RefMetadataCache(std::size_t capacity, std::size_t pte_w, std::size_t mr_w,
                   std::size_t qp_w)
      : capacity_(capacity), weight_{pte_w, mr_w, qp_w} {}

  bool access(Kind kind, std::uint64_t id) {
    const std::uint64_t k = key(kind, id);
    auto it = map_.find(k);
    if (it != map_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second.it);
      return true;
    }
    ++misses_;
    const std::size_t w = weight_[static_cast<std::size_t>(kind)];
    if (w > capacity_) return false;
    while (occupancy_ + w > capacity_) {
      auto vit = map_.find(lru_.back());
      occupancy_ -= vit->second.weight;
      map_.erase(vit);
      lru_.pop_back();
    }
    lru_.push_front(k);
    map_.emplace(k, Slot{lru_.begin(), w});
    occupancy_ += w;
    return false;
  }
  void invalidate(Kind kind, std::uint64_t id) {
    auto it = map_.find(key(kind, id));
    if (it == map_.end()) return;
    occupancy_ -= it->second.weight;
    lru_.erase(it->second.it);
    map_.erase(it);
  }
  void clear() {
    lru_.clear();
    map_.clear();
    occupancy_ = 0;
  }
  void reset_stats() { hits_ = misses_ = 0; }
  std::size_t occupancy() const { return occupancy_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  static std::uint64_t key(Kind kind, std::uint64_t id) {
    return (static_cast<std::uint64_t>(kind) << 62) | (id & ((1ULL << 62) - 1));
  }
  struct Slot {
    std::list<std::uint64_t>::iterator it;
    std::size_t weight;
  };
  std::size_t capacity_;
  std::size_t weight_[3];
  std::size_t occupancy_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::list<std::uint64_t> lru_;
  std::unordered_map<std::uint64_t, Slot> map_;
};

Kind kind_of(std::uint64_t r) { return static_cast<Kind>(r % 3); }

}  // namespace

TEST(MetadataCache, MatchesListLruReferenceOnRandomStreams) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(seed);
    sim::Rng rng(seed);
    // Capacities from a handful of units (heavy churn, oversize kinds) up
    // to hundreds (index growth); weights 0..5, so some kinds are heavier
    // than a small cache and are never inserted.
    static constexpr std::size_t kCaps[] = {1, 2, 3, 5, 8, 16, 64, 300, 1024};
    const std::size_t cap = kCaps[rng.uniform(std::size(kCaps))];
    const std::size_t w[3] = {1 + rng.uniform(2), rng.uniform(6),
                              rng.uniform(6)};
    const std::uint64_t ids = 2 + cap * (1 + rng.uniform(3));
    hw::MetadataCache flat(cap, w[0], w[1], w[2]);
    RefMetadataCache ref(cap, w[0], w[1], w[2]);
    for (int op = 0; op < 20000; ++op) {
      const std::uint64_t r = rng.uniform(1000);
      const Kind kind = kind_of(rng.next());
      const std::uint64_t id = rng.uniform(ids);
      if (r < 900) {
        ASSERT_EQ(flat.access(kind, id), ref.access(kind, id)) << "op " << op;
      } else if (r < 995) {
        flat.invalidate(kind, id);
        ref.invalidate(kind, id);
      } else if (r < 998) {
        flat.reset_stats();
        ref.reset_stats();
      } else {
        flat.clear();
        ref.clear();
      }
      ASSERT_EQ(flat.occupancy(), ref.occupancy()) << "op " << op;
      ASSERT_EQ(flat.hits(), ref.hits()) << "op " << op;
      ASSERT_EQ(flat.misses(), ref.misses()) << "op " << op;
    }
  }
}

// ---------------------------------------------------------------------------
// DramModel

TEST(Dram, SequentialCheaperThanRandom) {
  hw::ModelParams p;
  hw::DramModel seq(p), rnd(p);
  sim::Duration t_seq = 0, t_rnd = 0;
  sim::Rng rng(42);
  const std::uint64_t region = 1ull << 30;
  for (int i = 0; i < 10000; ++i) {
    t_seq += seq.access(static_cast<std::uint64_t>(i) * 64, 64,
                        hw::DramModel::Op::kWrite);
    t_rnd += rnd.access(rng.uniform(region / 64) * 64, 64,
                        hw::DramModel::Op::kWrite);
  }
  // The paper's local asymmetry anchor: ~2.9x for writes.
  const double ratio =
      static_cast<double>(t_rnd) / static_cast<double>(t_seq);
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 5.0);
}

TEST(Dram, SubLineSequentialHitsLine) {
  hw::ModelParams p;
  hw::DramModel d(p);
  (void)d.access(0, 8, hw::DramModel::Op::kRead);
  // Next 8B in the same 64B line: line-hit price.
  const auto t = d.access(8, 8, hw::DramModel::Op::kRead);
  EXPECT_EQ(t, p.dram_line_hit);
}

TEST(Dram, RowMissRecorded) {
  hw::ModelParams p;
  hw::DramModel d(p);
  d.access(0, 64, hw::DramModel::Op::kRead);
  d.access(1ull << 26, 64, hw::DramModel::Op::kRead);  // far away row
  EXPECT_GE(d.row_misses(), 2u);
}

TEST(Dram, CrossSocketCostsMore) {
  hw::ModelParams p;
  hw::DramModel a(p), b(p);
  const auto local = a.access(0, 64, hw::DramModel::Op::kRead, true);
  const auto remote = b.access(0, 64, hw::DramModel::Op::kRead, false);
  EXPECT_GT(remote, local);
}

TEST(Dram, BandwidthFloorForBulk) {
  hw::ModelParams p;
  hw::DramModel d(p);
  const std::size_t size = 1 << 20;
  const auto t = d.access(0, size, hw::DramModel::Op::kRead);
  EXPECT_GE(t, hw::ModelParams::ser_time(size, p.mem_local_gbps));
}

TEST(Dram, StreamRemoteSlower) {
  hw::ModelParams p;
  hw::DramModel d(p);
  EXPECT_GT(d.stream(1 << 20, false), d.stream(1 << 20, true));
}

TEST(Dram, IdleLatencyMatchesTable2) {
  hw::ModelParams p;
  hw::DramModel d(p);
  EXPECT_EQ(d.idle_latency(true), sim::ns(92));
  EXPECT_EQ(d.idle_latency(false), sim::ns(162));
}

TEST(Dram, ResetClearsState) {
  hw::ModelParams p;
  hw::DramModel d(p);
  d.access(0, 64, hw::DramModel::Op::kRead);
  d.reset();
  EXPECT_EQ(d.row_hits(), 0u);
  EXPECT_EQ(d.row_misses(), 0u);
}

namespace {

// Reference model: DramModel::access with the std::list + unordered_map
// open-row LRU the recency array replaced.
class RefDram {
 public:
  explicit RefDram(const hw::ModelParams& p) : p_(p) {}

  sim::Duration access(std::uint64_t addr, std::size_t size,
                       hw::DramModel::Op op, bool same) {
    const std::uint64_t first_line = addr / p_.dram_line_bytes;
    const std::uint64_t last =
        (addr + (size ? size - 1 : 0)) / p_.dram_line_bytes;
    sim::Duration total = 0;
    std::uint32_t pending_misses = 0;
    for (std::uint64_t line = first_line; line <= last; ++line) {
      if (line == last_line_) {
        total += p_.dram_line_hit;
        continue;
      }
      const std::uint64_t row = line * p_.dram_line_bytes / p_.dram_row_bytes;
      auto it = open_map_.find(row);
      if (it != open_map_.end()) {
        ++row_hits_;
        open_lru_.splice(open_lru_.begin(), open_lru_, it->second);
        total += p_.dram_row_hit;
      } else {
        ++row_misses_;
        if (open_map_.size() >= p_.dram_banks) {
          open_map_.erase(open_lru_.back());
          open_lru_.pop_back();
        }
        open_lru_.push_front(row);
        open_map_[row] = open_lru_.begin();
        if (++pending_misses % p_.dram_mlp == 1 || p_.dram_mlp == 1)
          total += p_.dram_row_miss;
        else
          total += p_.dram_row_hit;
      }
    }
    last_line_ = last;
    if (op == hw::DramModel::Op::kWrite) total = total * 3 / 4;
    if (!same) {
      total += p_.mem_remote_socket_latency - p_.mem_local_latency;
      total = static_cast<sim::Duration>(
          static_cast<double>(total) *
          (p_.mem_local_gbps / p_.mem_remote_socket_gbps));
    }
    const double gbps = same ? p_.mem_local_gbps : p_.mem_remote_socket_gbps;
    return std::max(total, hw::ModelParams::ser_time(size, gbps));
  }
  void reset() {
    open_lru_.clear();
    open_map_.clear();
    last_line_ = ~std::uint64_t{0};
    row_hits_ = row_misses_ = 0;
  }
  std::uint64_t row_hits() const { return row_hits_; }
  std::uint64_t row_misses() const { return row_misses_; }

 private:
  const hw::ModelParams& p_;
  std::list<std::uint64_t> open_lru_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
      open_map_;
  std::uint64_t last_line_ = ~std::uint64_t{0};
  std::uint64_t row_hits_ = 0;
  std::uint64_t row_misses_ = 0;
};

}  // namespace

TEST(Dram, MatchesListLruReferenceOnRandomStreams) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(seed);
    sim::Rng rng(seed);
    hw::ModelParams p;
    static constexpr std::size_t kBanks[] = {1, 2, 4, 16, 16, 32};
    p.dram_banks = kBanks[rng.uniform(std::size(kBanks))];
    p.dram_mlp = 1 + static_cast<std::uint32_t>(rng.uniform(4));
    hw::DramModel flat(p);
    RefDram ref(p);
    // Working sets of a few rows (row hits), a few dozen (bank-set
    // churn) and a whole GB (row misses), walked sequentially and at
    // random, with sub-line to multi-row sizes.
    const std::uint64_t regions[] = {4 * p.dram_row_bytes,
                                     40 * p.dram_row_bytes, 1ull << 30};
    std::uint64_t cursor = 0;
    for (int op = 0; op < 20000; ++op) {
      const std::uint64_t region = regions[rng.uniform(3)];
      const std::uint64_t r = rng.uniform(100);
      if (r == 0) {
        flat.reset();
        ref.reset();
        continue;
      }
      const std::size_t size =
          r < 60 ? 1 + rng.uniform(64)
                 : (r < 95 ? 1 + rng.uniform(4096) : 1 + rng.uniform(40000));
      cursor = r % 2 ? cursor + size : rng.uniform(region);
      const auto kind =
          rng.uniform(2) ? hw::DramModel::Op::kWrite : hw::DramModel::Op::kRead;
      const bool same = rng.uniform(4) != 0;
      ASSERT_EQ(flat.access(cursor, size, kind, same),
                ref.access(cursor, size, kind, same))
          << "op " << op;
      ASSERT_EQ(flat.row_hits(), ref.row_hits()) << "op " << op;
      ASSERT_EQ(flat.row_misses(), ref.row_misses()) << "op " << op;
    }
  }
}

// ---------------------------------------------------------------------------
// CoherenceModel

TEST(Coherence, UncontendedIsBase) {
  sim::Engine e;
  hw::ModelParams p;
  hw::CoherenceModel c(e, p);
  EXPECT_EQ(c.rmw_cost(1, false), p.coh_atomic_base);
}

TEST(Coherence, CostGrowsWithContenders) {
  sim::Engine e;
  hw::ModelParams p;
  hw::CoherenceModel c(e, p);
  c.add_contender(1);
  const auto one = c.rmw_cost(1, false);
  for (int i = 0; i < 7; ++i) c.add_contender(1);
  const auto eight = c.rmw_cost(1, false);
  EXPECT_GT(eight, one * 4);
}

TEST(Coherence, FaaDegradesMoreGracefullyThanCas) {
  sim::Engine e;
  hw::ModelParams p;
  hw::CoherenceModel c(e, p);
  for (int i = 0; i < 14; ++i) c.add_contender(1);
  EXPECT_LT(c.rmw_cost(1, false, hw::CoherenceModel::Rmw::kFaa),
            c.rmw_cost(1, false, hw::CoherenceModel::Rmw::kCas) / 3);
}

TEST(Coherence, RemoveContenderRestores) {
  sim::Engine e;
  hw::ModelParams p;
  hw::CoherenceModel c(e, p);
  c.add_contender(1);
  c.add_contender(1);
  c.remove_contender(1);
  c.remove_contender(1);
  EXPECT_EQ(c.contenders(1), 0u);
  EXPECT_EQ(c.rmw_cost(1, false), p.coh_atomic_base);
}

TEST(Coherence, CrossSocketSurcharge) {
  sim::Engine e;
  hw::ModelParams p;
  hw::CoherenceModel c(e, p);
  EXPECT_EQ(c.rmw_cost(1, true) - c.rmw_cost(1, false), p.coh_cross_socket);
}

TEST(Coherence, LinesAreIndependent) {
  sim::Engine e;
  hw::ModelParams p;
  hw::CoherenceModel c(e, p);
  for (int i = 0; i < 8; ++i) c.add_contender(1);
  EXPECT_EQ(c.rmw_cost(2, false), p.coh_atomic_base);
}

TEST(Coherence, LineResourceSerializes) {
  sim::Engine e;
  hw::ModelParams p;
  hw::CoherenceModel c(e, p);
  auto& r = c.line_resource(1);
  EXPECT_EQ(r.reserve(sim::ns(10)), sim::ns(10));
  EXPECT_EQ(r.reserve(sim::ns(10)), sim::ns(20));
  EXPECT_EQ(&c.line_resource(1), &r);  // stable identity
}

// ---------------------------------------------------------------------------
// NumaTopology

TEST(Numa, PortSocketBinding) {
  hw::ModelParams p;
  hw::NumaTopology t(p);
  EXPECT_EQ(t.port_socket(0), 0u);
  EXPECT_EQ(t.port_socket(1), 1u);
  EXPECT_EQ(t.port_socket(2), 0u);  // wraps
}

TEST(Numa, PenaltiesZeroWhenLocal) {
  hw::ModelParams p;
  hw::NumaTopology t(p);
  EXPECT_EQ(t.cpu_mem_penalty(0, 0), 0u);
  EXPECT_EQ(t.dma_mem_penalty(1, 1), 0u);
  EXPECT_EQ(t.mmio_penalty(1, 1), 0u);
}

TEST(Numa, PenaltiesMatchParams) {
  hw::ModelParams p;
  hw::NumaTopology t(p);
  EXPECT_EQ(t.cpu_mem_penalty(0, 1),
            p.mem_remote_socket_latency - p.mem_local_latency);
  EXPECT_EQ(t.dma_mem_penalty(0, 1), p.pcie_dma_alt_socket);
  EXPECT_EQ(t.mmio_penalty(0, 1), p.cpu_mmio_alt_socket);
}
