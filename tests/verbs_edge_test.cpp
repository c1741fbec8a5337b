// Edge-case semantics of the verbs layer: limits, ordering guarantees,
// inline fallback, zero-length ops, shared CQs, and golden determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "testbed.hpp"

namespace v = rdmasem::verbs;
namespace sim = rdmasem::sim;
using rdmasem::test::Testbed;
using rdmasem::test::make_read;
using rdmasem::test::make_write;

namespace {
void run(Testbed& tb, sim::Task t) {
  tb.eng.spawn(std::move(t));
  tb.eng.run();
}
}  // namespace

TEST(VerbsEdge, ZeroLengthWriteCompletesWithoutTouchingMemory) {
  Testbed tb;
  v::Buffer src(4096), dst(4096);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 1);
  std::memset(dst.data(), 0xAB, 16);

  run(tb, [](Testbed&, v::QueuePair* qp, v::MemoryRegion* l,
             v::MemoryRegion* r) -> sim::Task {
    auto c = co_await qp->execute(make_write(*l, 0, *r, 0, 0));
    EXPECT_TRUE(c.ok());
    EXPECT_EQ(c.byte_len, 0u);
  }(tb, conn.local, lmr, rmr));
  EXPECT_EQ(static_cast<unsigned char>(dst.data()[0]), 0xABu);
}

TEST(VerbsEdge, PerQpWriteOrderingHolds) {
  // The classic RDMA idiom: write the data, then write a flag; a reader
  // that sees the flag must see the data. Our per-stage FIFO resources
  // preserve same-QP WRITE ordering.
  Testbed tb;
  v::Buffer src(8192), dst(8192);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 1);

  bool ordering_ok = true;
  // Watcher on the remote side: whenever the flag is set, the data must
  // already be there.
  tb.eng.spawn([](Testbed& t, v::Buffer& d, bool& ok) -> sim::Task {
    for (int i = 0; i < 3000; ++i) {
      std::uint64_t flag = 0;
      std::memcpy(&flag, d.data() + 4096, 8);
      if (flag != 0) {
        std::uint64_t data = 0;
        std::memcpy(&data, d.data(), 8);
        // The data write precedes its flag on the same QP, so the data
        // may be AHEAD of the visible flag (next round already landed)
        // but never behind it.
        if (data < flag) ok = false;
      }
      co_await sim::delay(t.eng, sim::ns(50));
    }
  }(tb, dst, ordering_ok));

  tb.eng.spawn([](Testbed&, v::QueuePair* qp, v::MemoryRegion* l,
                  v::MemoryRegion* r, v::Buffer& s) -> sim::Task {
    for (std::uint64_t round = 1; round <= 60; ++round) {
      std::memcpy(s.data(), &round, 8);        // payload (1 KB)
      std::memcpy(s.data() + 2048, &round, 8); // flag value
      auto big = make_write(*l, 0, *r, 0, 1024);
      big.signaled = false;
      qp->post_send(big);                      // data first...
      auto c = co_await qp->execute(make_write(*l, 2048, *r, 4096, 8));
      EXPECT_TRUE(c.ok());                     // ...flag second
    }
  }(tb, conn.local, lmr, rmr, src));
  tb.eng.run();
  EXPECT_TRUE(ordering_ok);
}

TEST(VerbsEdge, InlineAboveLimitFallsBackToDma) {
  Testbed tb;
  v::Buffer src(4096), dst(4096);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 1);
  std::memcpy(src.data(), "inline-data", 11);

  run(tb, [](Testbed& t, v::QueuePair* qp, v::MemoryRegion* l,
             v::MemoryRegion* r) -> sim::Task {
    // A payload above max_inline with inline requested: still correct.
    auto big = make_write(*l, 0, *r, 0,
                          static_cast<std::uint32_t>(
                              t.cluster.params().rnic_max_inline + 64));
    big.inline_data = true;
    auto c = co_await qp->execute(big);
    EXPECT_TRUE(c.ok());
    // A small inline write is correct too.
    auto small = make_write(*l, 0, *r, 2048, 11);
    small.inline_data = true;
    auto c2 = co_await qp->execute(small);
    EXPECT_TRUE(c2.ok());
  }(tb, conn.local, lmr, rmr));
  EXPECT_EQ(std::memcmp(dst.data() + 2048, "inline-data", 11), 0);
  EXPECT_EQ(std::memcmp(dst.data(), "inline-data", 11), 0);
}

TEST(VerbsEdge, SharedCqCollectsFromMultipleQps) {
  Testbed tb;
  v::Buffer src(4096), dst(4096);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto* shared_cq = tb.ctx[0]->create_cq();
  auto cfg = tb.paper_qp();
  cfg.cq = shared_cq;
  auto c1 = tb.connect(0, 1, cfg, tb.paper_qp());
  auto c2 = tb.connect(0, 1, cfg, tb.paper_qp());

  auto wr1 = make_write(*lmr, 0, *rmr, 0, 8);
  wr1.wr_id = 111;
  auto wr2 = make_write(*lmr, 8, *rmr, 8, 8);
  wr2.wr_id = 222;
  c1.local->post_send(wr1);
  c2.local->post_send(wr2);
  tb.eng.run();
  EXPECT_EQ(shared_cq->pending(), 2u);
  std::uint64_t seen = 0;
  while (auto c = shared_cq->poll()) seen |= c->wr_id;
  EXPECT_EQ(seen, 111u | 222u);
}

TEST(VerbsEdge, ReadScattersAcrossMultipleSges) {
  Testbed tb;
  v::Buffer local(8192), remote(8192);
  auto* lmr = tb.ctx[0]->register_buffer(local, 1);
  auto* rmr = tb.ctx[1]->register_buffer(remote, 1);
  auto conn = tb.connect(0, 1);
  std::memcpy(remote.data() + 100, "0123456789AB", 12);

  run(tb, [](Testbed&, v::QueuePair* qp, v::MemoryRegion* l,
             v::MemoryRegion* r) -> sim::Task {
    v::WorkRequest wr;
    wr.opcode = v::Opcode::kRead;
    wr.sg_list = {{l->addr + 0, 4, l->key},
                  {l->addr + 1000, 4, l->key},
                  {l->addr + 2000, 4, l->key}};
    wr.remote_addr = r->addr + 100;
    wr.rkey = r->key;
    auto c = co_await qp->execute(wr);
    EXPECT_TRUE(c.ok());
    EXPECT_EQ(c.byte_len, 12u);
  }(tb, conn.local, lmr, rmr));
  EXPECT_EQ(std::memcmp(local.data(), "0123", 4), 0);
  EXPECT_EQ(std::memcmp(local.data() + 1000, "4567", 4), 0);
  EXPECT_EQ(std::memcmp(local.data() + 2000, "89AB", 4), 0);
}

TEST(VerbsEdge, WriteGathersOverlappingAndZeroLengthSges) {
  // The gather is a pure concatenation of the SGE ranges: overlapping
  // local ranges and zero-length elements are legal and land verbatim.
  Testbed tb;
  v::Buffer src(4096), dst(4096);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 1);
  std::memcpy(src.data(), "abcdefgh", 8);

  run(tb, [](Testbed&, v::QueuePair* qp, v::MemoryRegion* l,
             v::MemoryRegion* r) -> sim::Task {
    v::WorkRequest wr;
    wr.opcode = v::Opcode::kWrite;
    wr.sg_list = {{l->addr + 0, 6, l->key},
                  {l->addr + 3, 0, l->key},    // zero-length, mid-list
                  {l->addr + 2, 6, l->key}};   // overlaps the first SGE
    wr.remote_addr = r->addr + 64;
    wr.rkey = r->key;
    auto c = co_await qp->execute(wr);
    EXPECT_TRUE(c.ok());
    EXPECT_EQ(c.byte_len, 12u);
  }(tb, conn.local, lmr, rmr));
  EXPECT_EQ(std::memcmp(dst.data() + 64, "abcdefcdefgh", 12), 0);
}

TEST(VerbsEdge, BadMiddleSgeFailsWholeWrWithProtectionError) {
  // An invalid element anywhere in the list fails the WHOLE WR before any
  // byte moves — there is no partial gather.
  Testbed tb;
  v::Buffer src(4096), dst(4096);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 1);
  std::memset(src.data(), 0x5A, 64);
  std::memset(dst.data(), 0xEE, 64);

  run(tb, [](Testbed&, v::QueuePair* qp, v::MemoryRegion* l,
             v::MemoryRegion* r) -> sim::Task {
    // Middle SGE carries an lkey no MR was registered under.
    v::WorkRequest bad_key;
    bad_key.opcode = v::Opcode::kWrite;
    bad_key.sg_list = {{l->addr + 0, 8, l->key},
                       {l->addr + 8, 8, l->key + 0x5ee5},
                       {l->addr + 16, 8, l->key}};
    bad_key.remote_addr = r->addr;
    bad_key.rkey = r->key;
    auto c1 = co_await qp->execute(bad_key);
    EXPECT_EQ(c1.status, v::Status::kLocalProtectionError);

    // Middle SGE overruns its MR (addr valid, length reaches past the end).
    v::WorkRequest overrun;
    overrun.opcode = v::Opcode::kWrite;
    overrun.sg_list = {{l->addr + 0, 8, l->key},
                       {l->addr + 4090, 32, l->key},
                       {l->addr + 16, 8, l->key}};
    overrun.remote_addr = r->addr;
    overrun.rkey = r->key;
    auto c2 = co_await qp->execute(overrun);
    EXPECT_EQ(c2.status, v::Status::kLocalProtectionError);

    // The QP survives local protection errors (no transport fault): a
    // clean WR right after still completes.
    auto c3 = co_await qp->execute(make_write(*l, 0, *r, 0, 8));
    EXPECT_TRUE(c3.ok());
  }(tb, conn.local, lmr, rmr));
  // Only the final clean 8-byte write landed.
  EXPECT_EQ(static_cast<unsigned char>(dst.data()[0]), 0x5Au);
  EXPECT_EQ(static_cast<unsigned char>(dst.data()[8]), 0xEEu);
}

namespace {
void overflow_send_queue() {
  Testbed tb;
  v::Buffer src(4096), dst(4096);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto cfg = tb.paper_qp();
  cfg.sq_depth = 4;
  auto conn = tb.connect(0, 1, cfg, tb.paper_qp());
  for (int i = 0; i < 6; ++i)
    conn.local->post_send(make_write(*lmr, 0, *rmr, 0, 8));
}
}  // namespace

TEST(VerbsEdgeDeathTest, SendQueueOverflowAborts) {
  EXPECT_DEATH(overflow_send_queue(), "send queue overflow");
}

TEST(VerbsEdge, GoldenDeterminism) {
  // A fixed scenario must produce bit-identical simulated timestamps on
  // every run and platform — the determinism contract (README). If a
  // model change legitimately shifts these values, update the goldens.
  auto run_once = [] {
    Testbed tb;
    v::Buffer src(1 << 14), dst(1 << 14);
    auto* lmr = tb.ctx[0]->register_buffer(src, 1);
    auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
    auto conn = tb.connect(0, 1);
    tb.eng.spawn([](Testbed&, v::QueuePair* qp, v::MemoryRegion* l,
                    v::MemoryRegion* r) -> sim::Task {
      sim::Rng rng(42);
      for (int i = 0; i < 64; ++i) {
        const auto off = rng.uniform(256) * 32;
        (void)co_await qp->execute(make_write(*l, 0, *r, off, 32));
      }
    }(tb, conn.local, lmr, rmr));
    tb.eng.run();
    return tb.eng.now();
  };
  const sim::Time a = run_once();
  const sim::Time b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_GT(a, sim::us(64));  // 64 writes cannot be faster than 1 us each
  EXPECT_LT(a, sim::us(200));
}

// A WR whose remote target is missing (an rkey nobody issued, or one
// deregistered before or after the post) or out of range (past the end,
// or below the start of the MR) completes with kRemoteAccessError, for
// every opcode that names a remote address. The post-time payload
// prefetch looks the target up too; it must neither fault on a bad
// target nor stand in for the responder's check.
TEST(VerbsEdge, BadRemoteTargetIsRemoteAccessErrorForEveryOpcode) {
  enum class Fault { kUnissuedKey, kPastEnd, kBelowStart, kDeregistered,
                     kDeregisteredInFlight };
  const v::Opcode ops[] = {v::Opcode::kWrite, v::Opcode::kRead,
                           v::Opcode::kCompSwap, v::Opcode::kFetchAdd};
  const Fault faults[] = {Fault::kUnissuedKey, Fault::kPastEnd,
                          Fault::kBelowStart, Fault::kDeregistered,
                          Fault::kDeregisteredInFlight};
  for (const v::Opcode op : ops) {
    for (const Fault f : faults) {
      SCOPED_TRACE(std::string(v::to_string(op)) + " fault " +
                   std::to_string(static_cast<int>(f)));
      Testbed tb;
      v::Buffer src(4096), dst(4096);
      auto* lmr = tb.ctx[0]->register_buffer(src, 1);
      auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
      auto conn = tb.connect(0, 1);
      std::memset(dst.data(), 0x5A, dst.size());

      v::WorkRequest wr;
      wr.opcode = op;
      wr.sg_list = {{lmr->addr, 8, lmr->key}};
      wr.rkey = rmr->key;
      wr.remote_addr = rmr->addr + 64;
      wr.compare = 0x5A5A5A5A5A5A5A5Aull;
      wr.swap_or_add = 1;
      switch (f) {
        case Fault::kUnissuedKey: wr.rkey = rmr->key + 100; break;
        case Fault::kPastEnd: wr.remote_addr = rmr->addr + 4096; break;
        case Fault::kBelowStart: wr.remote_addr = rmr->addr - 64; break;
        case Fault::kDeregistered: tb.ctx[1]->deregister(rmr->key); break;
        case Fault::kDeregisteredInFlight:
          // Deregistered just after the post (and its prefetch), long
          // before the request crosses the wire to the responder.
          tb.eng.spawn([](Testbed& t, sim::Duration after,
                          std::uint32_t key) -> sim::Task {
            co_await sim::delay(t.eng, after);
            t.ctx[1]->deregister(key);
          }(tb, conn.local->post_cost(1) + sim::ns(1), rmr->key));
          break;
      }
      v::Completion got;
      run(tb, [](v::QueuePair* qp, v::WorkRequest w,
                 v::Completion& out) -> sim::Task {
        out = co_await qp->execute(std::move(w));
      }(conn.local, wr, got));
      EXPECT_EQ(got.status, v::Status::kRemoteAccessError);
      EXPECT_EQ(got.byte_len, 0u);
      // Nothing landed on either side.
      auto all_are = [](const v::Buffer& b, std::byte x) {
        return std::all_of(b.span().begin(), b.span().end(),
                           [x](std::byte y) { return y == x; });
      };
      EXPECT_TRUE(all_are(dst, std::byte{0x5A}));
      EXPECT_TRUE(all_are(src, std::byte{0}));
      EXPECT_EQ(conn.local->outstanding(), 0u);
    }
  }
}

// Many execute()s in flight on one QP, completing out of post order:
// zero-length READs skip the responder's DMA and memory stages and
// overtake the larger READs posted before them. Every waiter must still
// get its own wr_id's completion (the rendezvous matches by id, not by
// slot or order).
TEST(VerbsEdge, OutOfOrderCompletionsReachTheirOwnWaiters) {
  constexpr int kWrs = 40;
  Testbed tb;
  v::Buffer local(1 << 20), remote(1 << 20);
  auto* lmr = tb.ctx[0]->register_buffer(local, 1);
  auto* rmr = tb.ctx[1]->register_buffer(remote, 1);
  auto conn = tb.connect(0, 1);
  for (std::size_t i = 0; i < remote.size(); ++i)
    remote.data()[i] = static_cast<std::byte>(i * 7 + 3);

  struct Seen {
    std::uint64_t posted_id = 0;
    v::Completion c;
  };
  std::vector<Seen> seen(kWrs);
  std::vector<int> finish_order;
  auto size_of = [](int i) -> std::uint32_t {
    switch (i % 4) {
      case 0: return 16384;
      case 1: return 0;
      case 2: return 2048;
      default: return 32;
    }
  };
  for (int i = 0; i < kWrs; ++i) {
    tb.eng.spawn([](v::QueuePair* qp, v::WorkRequest wr, Seen& out,
                    std::vector<int>& order, int idx) -> sim::Task {
      wr.wr_id = 1000 + static_cast<std::uint64_t>(idx) * 3;
      out.posted_id = wr.wr_id;
      out.c = co_await qp->execute(std::move(wr));
      order.push_back(idx);
    }(conn.local,
      make_read(*lmr, static_cast<std::uint64_t>(i) * 16384, *rmr,
                static_cast<std::uint64_t>(i) * 16384, size_of(i)),
      seen[i], finish_order, i));
  }
  tb.eng.run();

  ASSERT_EQ(finish_order.size(), static_cast<std::size_t>(kWrs));
  int inversions = 0;
  for (int i = 1; i < kWrs; ++i)
    if (finish_order[i] < finish_order[i - 1]) ++inversions;
  EXPECT_GT(inversions, 0) << "completions arrived in post order";
  for (int i = 0; i < kWrs; ++i) {
    SCOPED_TRACE(i);
    EXPECT_TRUE(seen[i].c.ok());
    EXPECT_EQ(seen[i].c.wr_id, seen[i].posted_id);
    EXPECT_EQ(seen[i].c.byte_len, size_of(i));
    const std::size_t off = static_cast<std::size_t>(i) * 16384;
    EXPECT_EQ(std::memcmp(local.data() + off, remote.data() + off, size_of(i)),
              0);
  }
  EXPECT_EQ(conn.local->outstanding(), 0u);
}
