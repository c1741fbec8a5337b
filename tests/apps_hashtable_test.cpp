#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "apps/hashtable/hashtable.hpp"
#include "testbed.hpp"
#include "wl/zipf.hpp"

namespace ht = rdmasem::apps::hashtable;
namespace sim = rdmasem::sim;
using rdmasem::test::Testbed;

namespace {

std::vector<std::byte> value_for(std::uint64_t key, std::uint32_t size) {
  std::vector<std::byte> v(size);
  for (std::uint32_t i = 0; i < size; i += 8) {
    const std::uint64_t w = key * 0x9e3779b97f4a7c15ULL + i;
    std::memcpy(v.data() + i, &w, std::min<std::uint32_t>(8, size - i));
  }
  return v;
}

struct HtRig {
  Testbed tb;
  std::unique_ptr<ht::DisaggHashTable> table;

  explicit HtRig(ht::Config cfg) {
    table = std::make_unique<ht::DisaggHashTable>(*tb.ctx[0], cfg);
  }
};

}  // namespace

TEST(HashTableBasic, PutThenGetRoundTrips) {
  ht::Config cfg;
  cfg.num_keys = 1 << 10;
  HtRig rig(cfg);
  auto fe = rig.table->add_front_end(*rig.tb.ctx[1], 1);

  auto task = [](ht::FrontEnd& f, const ht::Config& c) -> sim::Task {
    for (std::uint64_t k : {0ull, 1ull, 17ull, 1023ull}) {
      const auto v = value_for(k, c.value_size);
      co_await f.put(k, v);
      const auto got = co_await f.get(k);
      EXPECT_EQ(got.size(), v.size());
      EXPECT_EQ(std::memcmp(got.data(), v.data(), v.size()), 0);
    }
    // A never-written key reads back empty.
    const auto missing = co_await f.get(999);
    EXPECT_TRUE(missing.empty());
  };
  rig.tb.eng.spawn(task(*fe, cfg));
  rig.tb.eng.run();
}

TEST(HashTableBasic, OverwriteReturnsLatest) {
  ht::Config cfg;
  cfg.num_keys = 1 << 10;
  HtRig rig(cfg);
  auto fe = rig.table->add_front_end(*rig.tb.ctx[1], 0);

  auto task = [](ht::FrontEnd& f, const ht::Config& c) -> sim::Task {
    co_await f.put(5, value_for(5, c.value_size));
    co_await f.put(5, value_for(77, c.value_size));
    const auto got = co_await f.get(5);
    const auto expect = value_for(77, c.value_size);
    EXPECT_EQ(std::memcmp(got.data(), expect.data(), expect.size()), 0);
  };
  rig.tb.eng.spawn(task(*fe, cfg));
  rig.tb.eng.run();
}

TEST(HashTableFull, MultiVersionColdPutGet) {
  ht::Config cfg;
  cfg.num_keys = 1 << 10;
  cfg.numa_aware = true;
  cfg.consolidate = true;
  cfg.hot_fraction = 1.0 / 8;
  HtRig rig(cfg);
  auto fe = rig.table->add_front_end(*rig.tb.ctx[1], 1);

  auto task = [](ht::FrontEnd& f, const ht::Config& c,
                 ht::Backend& be) -> sim::Task {
    // A key in the cold area (beyond the hot prefix).
    const std::uint64_t cold_key = be.hot_keys() + 10;
    for (int round = 0; round < 6; ++round) {  // cycles through versions
      const auto v = value_for(cold_key + 1000u * round, c.value_size);
      co_await f.put(cold_key, v);
      const auto got = co_await f.get(cold_key);
      EXPECT_EQ(got.size(), v.size());
      if (got.size() == v.size()) {
        EXPECT_EQ(std::memcmp(got.data(), v.data(), v.size()), 0);
      }
    }
  };
  rig.tb.eng.spawn(task(*fe, cfg, rig.table->backend()));
  rig.tb.eng.run();
}

TEST(HashTableFull, HotPutVisibleAfterDrain) {
  ht::Config cfg;
  cfg.num_keys = 1 << 10;
  cfg.numa_aware = true;
  cfg.consolidate = true;
  cfg.theta = 8;
  HtRig rig(cfg);
  auto fe = rig.table->add_front_end(*rig.tb.ctx[1], 0);
  auto& be = rig.table->backend();

  const std::uint64_t hot_key = 2;  // in the hot prefix
  auto task = [](ht::FrontEnd& f, const ht::Config& c, std::uint64_t k)
      -> sim::Task {
    co_await f.put(k, value_for(k, c.value_size));
    co_await f.drain();
    const auto got = co_await f.get(k);  // front-end cache
    const auto expect = value_for(k, c.value_size);
    EXPECT_EQ(std::memcmp(got.data(), expect.data(), expect.size()), 0);
  };
  rig.tb.eng.spawn(task(*fe, cfg, hot_key));
  rig.tb.eng.run();

  // The value reached the BACK-END hot area (not just the local shadow).
  const auto expect = value_for(hot_key, cfg.value_size);
  const auto s = be.socket_of(hot_key);
  const std::byte* entry = be.region(s)->at(be.hot_region_addr(s) +
                                            be.hot_entry_off(hot_key));
  EXPECT_EQ(std::memcmp(entry, expect.data(), expect.size()), 0);
}

TEST(HashTableFull, HotBlockLockReleasedAfterFlush) {
  ht::Config cfg;
  cfg.num_keys = 1 << 10;
  cfg.consolidate = true;
  cfg.theta = 2;
  HtRig rig(cfg);
  auto fe = rig.table->add_front_end(*rig.tb.ctx[1], 1);
  auto& be = rig.table->backend();

  auto task = [](ht::FrontEnd& f, const ht::Config& c) -> sim::Task {
    co_await f.put(0, value_for(1, c.value_size));
    co_await f.put(2, value_for(2, c.value_size));  // same socket-0... flush
    co_await f.drain();
  };
  rig.tb.eng.spawn(task(*fe, cfg));
  rig.tb.eng.run();

  // Every hot-block lock word must be zero after the run.
  for (rdmasem::hw::SocketId s = 0; s < 2; ++s) {
    const std::uint64_t blocks =
        be.hot_region_size() / be.hot_block_bytes();
    for (std::uint64_t b = 0; b < blocks; ++b) {
      std::uint64_t word = 0;
      std::memcpy(&word,
                  be.region(s)->at(be.hot_region_addr(s) +
                                   be.hot_block_addr(b)),
                  8);
      EXPECT_EQ(word, 0u);
    }
  }
}

TEST(HashTableThroughput, OptimizationLadderOrdering) {
  // Fig. 12 shape: basic < +NUMA < +reorder(theta). Each front-end
  // pipelines several client requests (a front-end is a server thread).
  auto mops_for = [](bool numa, bool consolidate, std::uint32_t theta) {
    Testbed tb;
    ht::Config cfg;
    cfg.num_keys = 1 << 14;
    cfg.numa_aware = numa;
    cfg.consolidate = consolidate;
    cfg.theta = theta;
    ht::DisaggHashTable table(*tb.ctx[0], cfg);
    const std::uint32_t fes = 6, pipeline = 4;
    const std::uint64_t ops = 800;  // per pipeline worker
    std::vector<std::unique_ptr<ht::FrontEnd>> workers;
    sim::CountdownLatch done(tb.eng, fes * pipeline);
    // Workers finish on their front-end machines' lanes; the run ends at
    // the latest finish.
    sim::Time end = 0;
    for (std::uint32_t i = 0; i < fes; ++i) {
      workers.push_back(
          table.add_front_end(*tb.ctx[1 + i % 7], (i / 7) % 2));
      for (std::uint32_t w = 0; w < pipeline; ++w) {
        auto loop = [](Testbed& t, ht::FrontEnd& f, const ht::Config& c,
                       std::uint32_t id, std::uint64_t n,
                       sim::CountdownLatch& d,
                       sim::Time& e) -> sim::Task {
          rdmasem::wl::ZipfGenerator zipf(c.num_keys, 0.99, 100 + id);
          const auto v = value_for(id, c.value_size);
          for (std::uint64_t i2 = 0; i2 < n; ++i2)
            co_await f.put(zipf.next(), v);
          e = std::max(e, t.eng.now());
          d.count_down();
          // Write-behind tail drains outside the measured window.
          if (d.remaining() == 0) co_await f.drain();
        };
        tb.eng.spawn(loop(tb, *workers.back(), cfg, i * pipeline + w, ops,
                          done, end));
      }
    }
    tb.eng.run();
    return fes * pipeline * ops /
           sim::to_us(end);
  };
  const double basic = mops_for(false, false, 16);
  const double numa = mops_for(true, false, 16);
  const double reorder16 = mops_for(true, true, 16);
  EXPECT_GT(numa, basic * 1.05);
  EXPECT_GT(reorder16, numa * 1.3);
  // Paper: +reorder peaks at ~1.85x..2.7x over basic.
  EXPECT_GT(reorder16 / basic, 1.5);
}

TEST(HashTableFull, HotWritesVisibleToOtherFrontEndsAfterDrain) {
  // FE A writes a hot key and drains; FE B (whose shadow never saw it)
  // must read the fresh value remotely.
  ht::Config cfg;
  cfg.num_keys = 1 << 10;
  cfg.numa_aware = true;
  cfg.consolidate = true;
  HtRig rig(cfg);
  auto fe_a = rig.table->add_front_end(*rig.tb.ctx[1], 1);
  auto fe_b = rig.table->add_front_end(*rig.tb.ctx[2], 1);

  auto task = [](ht::FrontEnd& a, ht::FrontEnd& b,
                 const ht::Config& c) -> sim::Task {
    const auto v = value_for(4242, c.value_size);
    co_await a.put(2, v);   // hot key
    co_await a.drain();     // flushed to the back-end hot area
    const auto got = co_await b.get(2);
    EXPECT_EQ(got.size(), v.size());
    if (got.size() == v.size()) {
      EXPECT_EQ(std::memcmp(got.data(), v.data(), v.size()), 0);
    }
  };
  rig.tb.eng.spawn(task(*fe_a, *fe_b, cfg));
  rig.tb.eng.run();
}

TEST(HashTableFull, DirtyShadowServedLocally) {
  // While a hot write is still buffered, the writer itself reads its own
  // shadow (read-your-writes within a front-end).
  ht::Config cfg;
  cfg.num_keys = 1 << 10;
  cfg.consolidate = true;
  cfg.theta = 100;  // nothing flushes during the test
  HtRig rig(cfg);
  auto fe = rig.table->add_front_end(*rig.tb.ctx[1], 1);

  auto task = [](ht::FrontEnd& f, const ht::Config& c) -> sim::Task {
    const auto v = value_for(7, c.value_size);
    co_await f.put(0, v);
    const auto got = co_await f.get(0);  // served from the dirty shadow
    EXPECT_EQ(std::memcmp(got.data(), v.data(), v.size()), 0);
  };
  rig.tb.eng.spawn(task(*fe, cfg));
  rig.tb.eng.run();
}

TEST(HashTableBasic, RemoveMakesKeyNotFound) {
  ht::Config cfg;
  cfg.num_keys = 1 << 10;
  HtRig rig(cfg);
  auto fe = rig.table->add_front_end(*rig.tb.ctx[1], 1);
  auto task = [](ht::FrontEnd& f, const ht::Config& c) -> sim::Task {
    co_await f.put(33, value_for(33, c.value_size));
    EXPECT_FALSE((co_await f.get(33)).empty());
    co_await f.remove(33);
    EXPECT_TRUE((co_await f.get(33)).empty());
    // Re-insert after delete works.
    co_await f.put(33, value_for(99, c.value_size));
    const auto got = co_await f.get(33);
    const auto expect = value_for(99, c.value_size);
    EXPECT_EQ(std::memcmp(got.data(), expect.data(), expect.size()), 0);
  };
  rig.tb.eng.spawn(task(*fe, cfg));
  rig.tb.eng.run();
}

TEST(HashTableFull, RemoveColdKeyWithVersions) {
  ht::Config cfg;
  cfg.num_keys = 1 << 10;
  cfg.consolidate = true;
  HtRig rig(cfg);
  auto fe = rig.table->add_front_end(*rig.tb.ctx[1], 1);
  auto task = [](ht::FrontEnd& f, const ht::Config& c,
                 ht::Backend& be) -> sim::Task {
    const std::uint64_t k = be.hot_keys() + 5;  // cold
    co_await f.put(k, value_for(1, c.value_size));
    co_await f.remove(k);
    EXPECT_TRUE((co_await f.get(k)).empty());
    co_await f.put(k, value_for(2, c.value_size));
    EXPECT_FALSE((co_await f.get(k)).empty());
  };
  rig.tb.eng.spawn(task(*fe, cfg, rig.table->backend()));
  rig.tb.eng.run();
}
