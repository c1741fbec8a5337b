// Fig. 10 — local vs remote vs RPC atomic primitives vs thread count:
//   (a) spinlock (lock-unlock pairs/s), with and without exponential
//       backoff for the remote lock
//   (b) sequencer (tickets/s)
//
// Paper shape: local collapses hardest under contention (cache-line
// ping-pong); remote degrades least and backoff holds it up; remote
// sequencer flat at ~2.4-2.6 MOPS; RPC lowest (server-CPU-bound).

#include "bench_common.hpp"
#include "remem/atomics.hpp"
#include "remem/rpc.hpp"
#include "sim/sync.hpp"

namespace {

using namespace rdmasem;
using bench::FigureCollector;

FigureCollector collector(
    "Fig. 10  Atomic primitives vs thread count (MOPS)",
    {"threads", "lock:local", "lock:remote", "lock:remote+bo", "lock:rpc",
     "seq:local", "seq:remote", "seq:rpc"});

constexpr int kOpsPerThread = 400;

// --- spinlocks -------------------------------------------------------------

double local_lock_mops(std::uint32_t threads) {
  wl::Rig rig;
  auto& m = rig.cluster.machine(0);
  remem::LocalSpinlock lock(rig.eng, m, 1);
  std::uint64_t acq = 0;
  sim::Time end = 0;
  for (std::uint32_t t = 0; t < threads; ++t) {
    auto worker = [](wl::Rig& r, remem::LocalSpinlock& l, std::uint32_t tid,
                     std::uint64_t& a, sim::Time& e) -> sim::Task {
      const hw::SocketId sock = tid % 2;
      for (int i = 0; i < kOpsPerThread; ++i) {
        co_await l.lock(sock);
        ++a;
        co_await l.unlock(sock);
      }
      e = std::max(e, r.eng.now());
    };
    rig.eng.spawn(worker(rig, lock, t, acq, end));
  }
  rig.eng.run();
  bench::absorb(rig.cluster);
  return static_cast<double>(acq) / sim::to_us(end);
}

double remote_lock_mops(std::uint32_t threads, bool backoff) {
  wl::Rig rig;
  verbs::Buffer lockmem(4096);
  auto* mr = rig.ctx[0]->register_buffer(lockmem, 1);
  std::vector<std::unique_ptr<remem::RemoteSpinlock>> locks;
  std::uint64_t acq = 0;
  sim::Time end = 0;
  for (std::uint32_t t = 0; t < threads; ++t) {
    auto* qp = rig.connect(1 + t % 7, 0).local;
    locks.push_back(std::make_unique<remem::RemoteSpinlock>(
        *qp, mr->addr, mr->key,
        backoff ? remem::BackoffPolicy::exponential()
                : remem::BackoffPolicy::none()));
    auto worker = [](wl::Rig& r, remem::RemoteSpinlock& l, std::uint64_t& a,
                     sim::Time& e) -> sim::Task {
      for (int i = 0; i < kOpsPerThread; ++i) {
        co_await l.lock();
        ++a;
        co_await l.unlock();
      }
      e = std::max(e, r.eng.now());
    };
    rig.eng.spawn(worker(rig, *locks.back(), acq, end));
  }
  rig.eng.run();
  bench::absorb(rig.cluster);
  return static_cast<double>(acq) / sim::to_us(end);
}

double rpc_lock_mops(std::uint32_t threads) {
  wl::Rig rig;
  remem::RpcLockServiceState st;
  remem::RpcServer server(*rig.ctx[0], [&st](std::uint64_t op,
                                             std::uint64_t arg) {
    return st.handle(op, arg);
  });
  std::vector<std::unique_ptr<remem::RpcClient>> clients;
  std::uint64_t acq = 0;
  sim::Time end = 0;
  for (std::uint32_t t = 0; t < threads; ++t) {
    clients.push_back(std::make_unique<remem::RpcClient>(
        *rig.ctx[1 + t % 7], rig.paper_qp()));
    verbs::Context::connect(*server.add_endpoint(), *clients.back()->qp());
    auto worker = [](wl::Rig& r, remem::RpcClient& c, std::uint64_t& a,
                     sim::Time& e) -> sim::Task {
      for (int i = 0; i < kOpsPerThread; ++i) {
        while (co_await c.call(remem::kRpcTryLock, 0) == 0) {
        }
        ++a;
        (void)co_await c.call(remem::kRpcUnlock, 0);
      }
      e = std::max(e, r.eng.now());
    };
    rig.eng.spawn(worker(rig, *clients.back(), acq, end));
  }
  rig.eng.run();
  bench::absorb(rig.cluster);
  return static_cast<double>(acq) / sim::to_us(end);
}

// --- sequencers ------------------------------------------------------------

double local_seq_mops(std::uint32_t threads) {
  wl::Rig rig;
  remem::LocalSequencer seq(rig.eng, rig.cluster.machine(0), 2);
  for (std::uint32_t t = 0; t < threads; ++t) seq.add_contender();
  std::uint64_t n = 0;
  sim::Time end = 0;
  for (std::uint32_t t = 0; t < threads; ++t) {
    auto worker = [](wl::Rig& r, remem::LocalSequencer& s, std::uint32_t tid,
                     std::uint64_t& a, sim::Time& e) -> sim::Task {
      for (int i = 0; i < kOpsPerThread; ++i) {
        (void)co_await s.next(tid % 2);
        ++a;
      }
      e = std::max(e, r.eng.now());
    };
    rig.eng.spawn(worker(rig, seq, t, n, end));
  }
  rig.eng.run();
  bench::absorb(rig.cluster);
  return static_cast<double>(n) / sim::to_us(end);
}

double remote_seq_mops(std::uint32_t threads) {
  wl::Rig rig;
  verbs::Buffer mem(4096);
  auto* mr = rig.ctx[0]->register_buffer(mem, 1);
  std::vector<std::unique_ptr<remem::RemoteSequencer>> seqs;
  std::uint64_t n = 0;
  sim::Time end = 0;
  for (std::uint32_t t = 0; t < threads; ++t) {
    auto* qp = rig.connect(1 + t % 7, 0).local;
    seqs.push_back(
        std::make_unique<remem::RemoteSequencer>(*qp, mr->addr, mr->key));
    auto worker = [](wl::Rig& r, remem::RemoteSequencer& s, std::uint64_t& a,
                     sim::Time& e) -> sim::Task {
      for (int i = 0; i < kOpsPerThread; ++i) {
        (void)co_await s.next();
        ++a;
      }
      e = std::max(e, r.eng.now());
    };
    rig.eng.spawn(worker(rig, *seqs.back(), n, end));
  }
  rig.eng.run();
  bench::absorb(rig.cluster);
  return static_cast<double>(n) / sim::to_us(end);
}

double rpc_seq_mops(std::uint32_t threads) {
  wl::Rig rig;
  remem::RpcLockServiceState st;
  remem::RpcServer server(*rig.ctx[0], [&st](std::uint64_t op,
                                             std::uint64_t arg) {
    return st.handle(op, arg);
  });
  std::vector<std::unique_ptr<remem::RpcClient>> clients;
  std::uint64_t n = 0;
  sim::Time end = 0;
  for (std::uint32_t t = 0; t < threads; ++t) {
    clients.push_back(std::make_unique<remem::RpcClient>(
        *rig.ctx[1 + t % 7], rig.paper_qp()));
    verbs::Context::connect(*server.add_endpoint(), *clients.back()->qp());
    auto worker = [](wl::Rig& r, remem::RpcClient& c, std::uint64_t& a,
                     sim::Time& e) -> sim::Task {
      for (int i = 0; i < kOpsPerThread; ++i) {
        (void)co_await c.call(remem::kRpcSeqNext, 0);
        ++a;
      }
      e = std::max(e, r.eng.now());
    };
    rig.eng.spawn(worker(rig, *clients.back(), n, end));
  }
  rig.eng.run();
  bench::absorb(rig.cluster);
  return static_cast<double>(n) / sim::to_us(end);
}

void fig10(std::uint32_t threads) {
  const double ll = local_lock_mops(threads);
  const double rl = remote_lock_mops(threads, false);
  const double rlb = remote_lock_mops(threads, true);
  const double pl = rpc_lock_mops(threads);
  const double ls = local_seq_mops(threads);
  const double rs = remote_seq_mops(threads);
  const double ps = rpc_seq_mops(threads);
  const std::string x = std::to_string(threads);
  bench::point_mops("lock:local", x, ll);
  bench::point_mops("lock:remote", x, rl);
  bench::point_mops("lock:remote+bo", x, rlb);
  bench::point_mops("lock:rpc", x, pl);
  bench::point_mops("seq:local", x, ls);
  bench::point_mops("seq:remote", x, rs);
  bench::point_mops("seq:rpc", x, ps);
  collector.add({std::to_string(threads), util::fmt(ll), util::fmt(rl),
                 util::fmt(rlb), util::fmt(pl), util::fmt(ls), util::fmt(rs),
                 util::fmt(ps)});
}

void sweep() {
  for (const std::uint32_t threads : {1, 2, 4, 6, 8, 10, 12, 14})
    fig10(threads);
}

}  // namespace

RDMASEM_BENCH_MAIN(sweep, collector)
