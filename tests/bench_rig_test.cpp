// bench::MicroRig's buffer pool: rigs that declare their buffers' contents
// unread reuse host storage at fresh simulated addresses; rigs whose
// workload reads memory values always get fresh zero-filled buffers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "bench_common.hpp"

namespace v = rdmasem::verbs;
namespace sim = rdmasem::sim;
namespace bench = rdmasem::bench;

namespace {

// Each test uses its own buffer size: the pool is process-wide, and a
// request of a size it does not hold frees what it held, so every test
// starts from an empty pool whichever tests ran before it.
constexpr std::size_t kReuseSize = std::size_t{1} << 20;
constexpr std::size_t kZeroSize = std::size_t{3} << 19;
constexpr std::size_t kOneSize = std::size_t{1} << 21;

bool all_zero(const v::Buffer& b) {
  return std::all_of(b.span().begin(), b.span().end(),
                     [](std::byte x) { return x == std::byte{0}; });
}

}  // namespace

TEST(BenchRigPool, UnreadRigReusesStorageAtFreshAddresses) {
  std::byte* src_storage = nullptr;
  std::byte* dst_storage = nullptr;
  std::uint64_t last_addr = 0;
  {
    bench::MicroRig a(kReuseSize, kReuseSize, 1,
                      rdmasem::hw::ModelParams::connectx3_cluster(),
                      bench::Contents::kUnread);
    src_storage = a.src.data();
    dst_storage = a.dst.data();
    last_addr = a.dst.addr();
    std::memset(a.dst.data(), 0xEE, kReuseSize);
  }
  EXPECT_EQ(bench::BufferPool::instance().idle(), 2u);
  bench::MicroRig b(kReuseSize, kReuseSize, 1,
                    rdmasem::hw::ModelParams::connectx3_cluster(),
                    bench::Contents::kUnread);
  EXPECT_EQ(bench::BufferPool::instance().idle(), 0u);
  // The same two blocks of host storage, in either order.
  EXPECT_TRUE((b.src.data() == src_storage && b.dst.data() == dst_storage) ||
              (b.src.data() == dst_storage && b.dst.data() == src_storage));
  // Simulated addresses are drawn afresh, in the order and spacing that
  // constructing new buffers gives: row-rounded size plus a guard row.
  EXPECT_GT(b.src.addr(), last_addr);
  EXPECT_EQ(b.dst.addr(), b.src.addr() + kReuseSize + 8192);
  v::Buffer next(kReuseSize);
  EXPECT_EQ(next.addr(), b.dst.addr() + kReuseSize + 8192);
  // The MRs name the reused storage at the fresh addresses.
  EXPECT_EQ(b.lmr->addr, b.src.addr());
  EXPECT_EQ(b.lmr->data, b.src.data());
  EXPECT_EQ(b.rmr->addr, b.dst.addr());
}

TEST(BenchRigPool, ReadRigAlwaysSeesZeroedMemory) {
  {
    bench::MicroRig dirty(kZeroSize, kZeroSize, 1,
                          rdmasem::hw::ModelParams::connectx3_cluster(),
                          bench::Contents::kUnread);
    std::memset(dirty.src.data(), 0xFF, kZeroSize);
    std::memset(dirty.dst.data(), 0xFF, kZeroSize);
  }
  ASSERT_EQ(bench::BufferPool::instance().idle(), 2u);

  // Default contents: the workload reads values (CAS/FAA).
  bench::MicroRig rig(kZeroSize, kZeroSize, 1);
  EXPECT_EQ(bench::BufferPool::instance().idle(), 2u);  // pool untouched
  EXPECT_TRUE(all_zero(rig.src));
  EXPECT_TRUE(all_zero(rig.dst));

  std::uint64_t faa_old = 1, cas_old = 1;
  bool cas_ok = false;
  rig.rig.eng.spawn([](bench::MicroRig& r, std::uint64_t& faa,
                       std::uint64_t& cas, bool& ok) -> sim::Task {
    v::WorkRequest wr;
    wr.opcode = v::Opcode::kFetchAdd;
    wr.sg_list = {{r.lmr->addr, 8, r.lmr->key}};
    wr.remote_addr = r.rmr->addr + 4096;
    wr.rkey = r.rmr->key;
    wr.swap_or_add = 5;
    faa = (co_await r.qps[0]->execute(wr)).atomic_old;
    wr.opcode = v::Opcode::kCompSwap;
    wr.remote_addr = r.rmr->addr + 8192;
    wr.compare = 0;
    wr.swap_or_add = 9;
    const v::Completion c = co_await r.qps[0]->execute(wr);
    cas = c.atomic_old;
    ok = c.ok();
  }(rig, faa_old, cas_old, cas_ok));
  rig.rig.eng.run();
  EXPECT_EQ(faa_old, 0u);
  EXPECT_TRUE(cas_ok);
  EXPECT_EQ(cas_old, 0u);
  EXPECT_EQ(*rig.dst.as<std::uint64_t>(4096), 5u);
  EXPECT_EQ(*rig.dst.as<std::uint64_t>(8192), 9u);
}

TEST(BenchRigPool, IdleStorageIsKeptForOneSizeOnly) {
  { bench::MicroRig a(kOneSize, kOneSize, 1,
                      rdmasem::hw::ModelParams::connectx3_cluster(),
                      bench::Contents::kUnread); }
  EXPECT_EQ(bench::BufferPool::instance().idle(), 2u);
  // A request of another size frees the idle storage of the old one, and
  // storage of a size the pool does not keep is freed on return.
  { bench::MicroRig b(2 * kOneSize, 2 * kOneSize, 1,
                      rdmasem::hw::ModelParams::connectx3_cluster(),
                      bench::Contents::kUnread); }
  EXPECT_EQ(bench::BufferPool::instance().idle(), 2u);
  { bench::MicroRig c(kOneSize, kOneSize, 1); }
  EXPECT_EQ(bench::BufferPool::instance().idle(), 2u);
}
