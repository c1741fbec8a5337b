#include <gtest/gtest.h>
#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>

#include "testbed.hpp"
#include "util/sanitizer.hpp"

namespace v = rdmasem::verbs;
namespace sim = rdmasem::sim;
using rdmasem::test::Testbed;
using rdmasem::test::make_read;
using rdmasem::test::make_write;

namespace {

// Runs one coroutine to completion on the testbed engine.
void run(Testbed& tb, sim::Task t) {
  tb.eng.spawn(std::move(t));
  tb.eng.run();
}

}  // namespace

TEST(VerbsWrite, DataActuallyMoves) {
  Testbed tb;
  v::Buffer src(4096), dst(4096);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 1);
  std::memcpy(src.data(), "hello rdma", 10);

  run(tb, [](Testbed& t, v::QueuePair* qp, v::MemoryRegion* l,
             v::MemoryRegion* r) -> sim::Task {
    auto c = co_await qp->execute(make_write(*l, 0, *r, 100, 10));
    EXPECT_TRUE(c.ok());
    EXPECT_EQ(c.byte_len, 10u);
    (void)t;
  }(tb, conn.local, lmr, rmr));

  EXPECT_EQ(std::memcmp(dst.data() + 100, "hello rdma", 10), 0);
}

TEST(VerbsWrite, SglGathersContiguously) {
  Testbed tb;
  v::Buffer src(4096), dst(4096);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 1);
  std::memcpy(src.data(), "AAAA", 4);
  std::memcpy(src.data() + 1000, "BBBB", 4);
  std::memcpy(src.data() + 2000, "CCCC", 4);

  run(tb, [](Testbed&, v::QueuePair* qp, v::MemoryRegion* l,
             v::MemoryRegion* r) -> sim::Task {
    v::WorkRequest wr;
    wr.opcode = v::Opcode::kWrite;
    wr.sg_list = {{l->addr, 4, l->key},
                  {l->addr + 1000, 4, l->key},
                  {l->addr + 2000, 4, l->key}};
    wr.remote_addr = r->addr;
    wr.rkey = r->key;
    auto c = co_await qp->execute(wr);
    EXPECT_TRUE(c.ok());
    EXPECT_EQ(c.byte_len, 12u);
  }(tb, conn.local, lmr, rmr));

  EXPECT_EQ(std::memcmp(dst.data(), "AAAABBBBCCCC", 12), 0);
}

TEST(VerbsRead, PullsRemoteData) {
  Testbed tb;
  v::Buffer local(4096), remote(4096);
  auto* lmr = tb.ctx[0]->register_buffer(local, 1);
  auto* rmr = tb.ctx[1]->register_buffer(remote, 1);
  auto conn = tb.connect(0, 1);
  std::memcpy(remote.data() + 64, "remote-bytes", 12);

  run(tb, [](Testbed&, v::QueuePair* qp, v::MemoryRegion* l,
             v::MemoryRegion* r) -> sim::Task {
    auto c = co_await qp->execute(make_read(*l, 8, *r, 64, 12));
    EXPECT_TRUE(c.ok());
  }(tb, conn.local, lmr, rmr));

  EXPECT_EQ(std::memcmp(local.data() + 8, "remote-bytes", 12), 0);
}

TEST(VerbsAtomic, FetchAddReturnsOldAndAdds) {
  Testbed tb;
  v::Buffer local(64), remote(64);
  auto* lmr = tb.ctx[0]->register_buffer(local, 1);
  auto* rmr = tb.ctx[1]->register_buffer(remote, 1);
  auto conn = tb.connect(0, 1);
  *remote.as<std::uint64_t>() = 41;

  run(tb, [](Testbed&, v::QueuePair* qp, v::MemoryRegion* l,
             v::MemoryRegion* r) -> sim::Task {
    v::WorkRequest wr;
    wr.opcode = v::Opcode::kFetchAdd;
    wr.sg_list = {{l->addr, 8, l->key}};
    wr.remote_addr = r->addr;
    wr.rkey = r->key;
    wr.swap_or_add = 1;
    auto c = co_await qp->execute(wr);
    EXPECT_TRUE(c.ok());
    EXPECT_EQ(c.atomic_old, 41u);
    auto c2 = co_await qp->execute(wr);
    EXPECT_EQ(c2.atomic_old, 42u);
  }(tb, conn.local, lmr, rmr));

  EXPECT_EQ(*remote.as<std::uint64_t>(), 43u);
  EXPECT_EQ(*local.as<std::uint64_t>(), 42u);  // old value DMA'd back
}

TEST(VerbsAtomic, CompSwapOnlyOnMatch) {
  Testbed tb;
  v::Buffer local(64), remote(64);
  auto* lmr = tb.ctx[0]->register_buffer(local, 1);
  auto* rmr = tb.ctx[1]->register_buffer(remote, 1);
  auto conn = tb.connect(0, 1);
  *remote.as<std::uint64_t>() = 7;

  run(tb, [](Testbed&, v::QueuePair* qp, v::MemoryRegion* l,
             v::MemoryRegion* r) -> sim::Task {
    v::WorkRequest wr;
    wr.opcode = v::Opcode::kCompSwap;
    wr.sg_list = {{l->addr, 8, l->key}};
    wr.remote_addr = r->addr;
    wr.rkey = r->key;
    wr.compare = 99;  // mismatch: no swap
    wr.swap_or_add = 1;
    auto c = co_await qp->execute(wr);
    EXPECT_EQ(c.atomic_old, 7u);

    wr.compare = 7;  // match: swap to 1
    auto c2 = co_await qp->execute(wr);
    EXPECT_EQ(c2.atomic_old, 7u);
  }(tb, conn.local, lmr, rmr));

  EXPECT_EQ(*remote.as<std::uint64_t>(), 1u);
}

TEST(VerbsAtomic, MisalignedRejected) {
  Testbed tb;
  v::Buffer local(64), remote(64);
  auto* lmr = tb.ctx[0]->register_buffer(local, 1);
  auto* rmr = tb.ctx[1]->register_buffer(remote, 1);
  auto conn = tb.connect(0, 1);

  run(tb, [](Testbed&, v::QueuePair* qp, v::MemoryRegion* l,
             v::MemoryRegion* r) -> sim::Task {
    v::WorkRequest wr;
    wr.opcode = v::Opcode::kFetchAdd;
    wr.sg_list = {{l->addr, 8, l->key}};
    wr.remote_addr = r->addr + 3;  // misaligned
    wr.rkey = r->key;
    wr.swap_or_add = 1;
    auto c = co_await qp->execute(wr);
    EXPECT_EQ(c.status, v::Status::kRemoteInvalidRequest);
  }(tb, conn.local, lmr, rmr));
}

TEST(VerbsSendRecv, DeliversAndCompletesBothSides) {
  Testbed tb;
  v::Buffer sbuf(4096), rbuf(4096);
  auto* smr = tb.ctx[0]->register_buffer(sbuf, 1);
  auto* rmr = tb.ctx[1]->register_buffer(rbuf, 1);
  auto conn = tb.connect(0, 1);
  std::memcpy(sbuf.data(), "ping", 4);
  conn.remote->post_recv({77, {rmr->addr, 256, rmr->key}});

  bool recv_done = false;
  run(tb, [](Testbed& t, Testbed::Conn c, v::MemoryRegion* s,
             bool& flag) -> sim::Task {
    v::WorkRequest wr;
    wr.opcode = v::Opcode::kSend;
    wr.sg_list = {{s->addr, 4, s->key}};
    auto sc = co_await c.local->execute(wr);
    EXPECT_TRUE(sc.ok());
    auto rc = co_await c.remote->config().cq->next();
    EXPECT_EQ(rc.opcode, v::Opcode::kRecv);
    EXPECT_EQ(rc.wr_id, 77u);
    EXPECT_EQ(rc.byte_len, 4u);
    flag = true;
    (void)t;
  }(tb, conn, smr, recv_done));

  EXPECT_TRUE(recv_done);
  EXPECT_EQ(std::memcmp(rbuf.data(), "ping", 4), 0);
}

TEST(VerbsSendRecv, RnrWhenNoReceivePosted) {
  Testbed tb;
  v::Buffer sbuf(64);
  auto* smr = tb.ctx[0]->register_buffer(sbuf, 1);
  auto conn = tb.connect(0, 1);

  run(tb, [](Testbed&, v::QueuePair* qp, v::MemoryRegion* s) -> sim::Task {
    v::WorkRequest wr;
    wr.opcode = v::Opcode::kSend;
    wr.sg_list = {{s->addr, 4, s->key}};
    auto c = co_await qp->execute(wr);
    EXPECT_EQ(c.status, v::Status::kRnrRetryExceeded);
  }(tb, conn.local, smr));
}

TEST(VerbsErrors, BadRkeyIsRemoteAccessError) {
  Testbed tb;
  v::Buffer src(4096);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto conn = tb.connect(0, 1);

  run(tb, [](Testbed&, v::QueuePair* qp, v::MemoryRegion* l) -> sim::Task {
    v::WorkRequest wr;
    wr.opcode = v::Opcode::kWrite;
    wr.sg_list = {{l->addr, 8, l->key}};
    wr.remote_addr = 0x1000;
    wr.rkey = 9999;  // nobody registered this
    auto c = co_await qp->execute(wr);
    EXPECT_EQ(c.status, v::Status::kRemoteAccessError);
  }(tb, conn.local, lmr));
}

TEST(VerbsErrors, RemoteRangeOutOfBounds) {
  Testbed tb;
  v::Buffer src(4096), dst(4096);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 1);

  run(tb, [](Testbed&, v::QueuePair* qp, v::MemoryRegion* l,
             v::MemoryRegion* r) -> sim::Task {
    auto wr = make_write(*l, 0, *r, 4090, 100);  // spills past the MR
    auto c = co_await qp->execute(wr);
    EXPECT_EQ(c.status, v::Status::kRemoteAccessError);
  }(tb, conn.local, lmr, rmr));
}

TEST(VerbsErrors, BadLkeyIsLocalProtectionError) {
  Testbed tb;
  v::Buffer dst(4096);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 1);

  run(tb, [](Testbed&, v::QueuePair* qp, v::MemoryRegion* r) -> sim::Task {
    v::WorkRequest wr;
    wr.opcode = v::Opcode::kWrite;
    wr.sg_list = {{0x4000, 8, 12345}};
    wr.remote_addr = r->addr;
    wr.rkey = r->key;
    auto c = co_await qp->execute(wr);
    EXPECT_EQ(c.status, v::Status::kLocalProtectionError);
  }(tb, conn.local, rmr));
}

TEST(VerbsCompletion, UnsignaledProducesNoCqe) {
  Testbed tb;
  v::Buffer src(4096), dst(4096);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 1);

  auto wr = make_write(*lmr, 0, *rmr, 0, 8);
  wr.wr_id = 1;
  wr.signaled = false;
  conn.local->post_send(wr);
  tb.eng.run();
  EXPECT_EQ(conn.local->config().cq->pending(), 0u);
  EXPECT_EQ(conn.local->outstanding(), 0u);
  EXPECT_EQ(conn.local->ops_completed(), 1u);
}

TEST(VerbsCompletion, SignaledGoesToCq) {
  Testbed tb;
  v::Buffer src(4096), dst(4096);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 1);

  auto wr = make_write(*lmr, 0, *rmr, 0, 8);
  wr.wr_id = 42;
  conn.local->post_send(wr);
  tb.eng.run();
  ASSERT_EQ(conn.local->config().cq->pending(), 1u);
  auto c = conn.local->config().cq->poll();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->wr_id, 42u);
  EXPECT_TRUE(c->ok());
}

TEST(VerbsCompletion, ExecuteBatchReturnsLastCompletion) {
  Testbed tb;
  v::Buffer src(4096), dst(4096);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 1);
  std::memcpy(src.data(), "0123456789abcdef", 16);

  run(tb, [](Testbed&, v::QueuePair* qp, v::MemoryRegion* l,
             v::MemoryRegion* r) -> sim::Task {
    std::vector<v::WorkRequest> wrs;
    for (int i = 0; i < 4; ++i) {
      auto wr = make_write(*l, static_cast<std::uint64_t>(i) * 4, *r,
                           static_cast<std::uint64_t>(i) * 4, 4);
      wr.signaled = false;
      wrs.push_back(wr);
    }
    auto c = co_await qp->execute_batch(std::move(wrs));
    EXPECT_TRUE(c.ok());
  }(tb, conn.local, lmr, rmr));

  EXPECT_EQ(std::memcmp(dst.data(), "0123456789abcdef", 16), 0);
}

TEST(VerbsLifecycle, OutstandingDrainsToZero) {
  Testbed tb;
  v::Buffer src(1 << 16), dst(1 << 16);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 1);

  for (int i = 0; i < 100; ++i) {
    auto wr = make_write(*lmr, static_cast<std::uint64_t>(i) * 64, *rmr,
                         static_cast<std::uint64_t>(i) * 64, 64);
    wr.signaled = false;
    conn.local->post_send(wr);
  }
  EXPECT_EQ(conn.local->outstanding(), 100u);
  tb.eng.run();
  EXPECT_EQ(conn.local->outstanding(), 0u);
  EXPECT_EQ(conn.local->ops_completed(), 100u);
  EXPECT_EQ(conn.local->bytes_completed(), 6400u);
}

TEST(VerbsMr, DeregisterInvalidatesKey) {
  Testbed tb;
  v::Buffer b(4096), c(4096);
  auto* mr = tb.ctx[0]->register_buffer(b, 0);
  auto* other = tb.ctx[0]->register_buffer(c, 0);
  const auto key = mr->key;
  EXPECT_NE(tb.ctx[0]->lookup(key), nullptr);
  EXPECT_EQ(tb.ctx[0]->mr_count(), 2u);
  tb.ctx[0]->deregister(key);
  EXPECT_EQ(tb.ctx[0]->lookup(key), nullptr);
  EXPECT_EQ(tb.ctx[0]->lookup(other->key), other);
  EXPECT_EQ(tb.ctx[0]->mr_count(), 1u);
  tb.ctx[0]->deregister(key);  // already gone: no-op
  EXPECT_EQ(tb.ctx[0]->mr_count(), 1u);
  // Keys are never reissued; 0 and unissued keys resolve to nothing.
  auto* again = tb.ctx[0]->register_buffer(b, 0);
  EXPECT_NE(again->key, key);
  EXPECT_EQ(tb.ctx[0]->lookup(again->key), again);
  EXPECT_EQ(tb.ctx[0]->lookup(0), nullptr);
  EXPECT_EQ(tb.ctx[0]->lookup(again->key + 1), nullptr);
  EXPECT_EQ(tb.ctx[0]->mr_count(), 2u);
}

// Buffers from 32 MiB up are anonymous mappings rather than heap blocks
// (except under ASan, which keeps every buffer on its own heap).
constexpr std::size_t kMappedBytes = std::size_t{33} << 20;

TEST(VerbsBuffer, LargeBufferReadsZeroAndIsRowAligned) {
  v::Buffer b(kMappedBytes + 100);
  ASSERT_NE(b.data(), nullptr);
  EXPECT_EQ(b.size(), kMappedBytes + 100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % 8192, 0u);
  EXPECT_EQ(b.addr() % 8192, 0u);
  const auto bytes = b.span();
  EXPECT_TRUE(std::all_of(bytes.begin(), bytes.end(),
                          [](std::byte x) { return x == std::byte{0}; }));
  bytes.back() = std::byte{0x5A};
  EXPECT_EQ(b.data()[kMappedBytes + 99], std::byte{0x5A});
}

TEST(VerbsBuffer, SimAddressSequenceIsTheSameForBothStoragePaths) {
  // Each buffer's simulated address is the previous one's plus its
  // row-rounded size plus one guard row, whichever storage backs it.
  v::Buffer a(4096), big(kMappedBytes + 1), c(100), d(kMappedBytes);
  const std::uint64_t big_rounded = (kMappedBytes + 1 + 8191) / 8192 * 8192;
  EXPECT_EQ(big.addr(), a.addr() + 8192 + 8192);
  EXPECT_EQ(c.addr(), big.addr() + big_rounded + 8192);
  EXPECT_EQ(d.addr(), c.addr() + 8192 + 8192);
}

TEST(VerbsBuffer, MoveTransfersAndMoveAssignReleasesTheMapping) {
  v::Buffer a(kMappedBytes);
  std::byte* storage = a.data();
  const std::uint64_t addr = a.addr();
  v::Buffer b(std::move(a));
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(b.data(), storage);
  EXPECT_EQ(b.addr(), addr);
  b = v::Buffer(4096);
  EXPECT_EQ(b.size(), 4096u);
  EXPECT_NE(b.data(), storage);
#if !RDMASEM_ASAN
  // The old mapping is gone: mincore() rejects an unmapped range.
  unsigned char resident = 0;
  EXPECT_EQ(::mincore(storage, 4096, &resident), -1);
  EXPECT_EQ(errno, ENOMEM);
#endif
}

TEST(VerbsMr, ContainsChecksOverflowSafe) {
  v::MemoryRegion mr;
  mr.addr = 1000;
  mr.length = 100;
  EXPECT_TRUE(mr.contains(1000, 100));
  EXPECT_TRUE(mr.contains(1099, 1));
  EXPECT_FALSE(mr.contains(1099, 2));
  EXPECT_FALSE(mr.contains(999, 1));
  EXPECT_FALSE(mr.contains(1000, 101));
  // Overflow attempt: huge addr + len wrapping around.
  EXPECT_FALSE(mr.contains(~0ull - 1, 100));
}

TEST(VerbsLoopback, SameMachineWriteWorks) {
  Testbed tb;
  v::Buffer src(4096), dst(4096);
  auto* lmr = tb.ctx[0]->register_buffer(src, 0);
  auto* rmr = tb.ctx[0]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 0);
  std::memcpy(src.data(), "loop", 4);

  run(tb, [](Testbed&, v::QueuePair* qp, v::MemoryRegion* l,
             v::MemoryRegion* r) -> sim::Task {
    auto c = co_await qp->execute(make_write(*l, 0, *r, 0, 4));
    EXPECT_TRUE(c.ok());
  }(tb, conn.local, lmr, rmr));

  EXPECT_EQ(std::memcmp(dst.data(), "loop", 4), 0);
}
