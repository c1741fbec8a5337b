// Fig. 5 — Per-thread throughput vs thread count (1..8), batch size 4,
// 32 B payload, all threads sharing one RNIC port.
//
// Paper shape: SP > SGL > Doorbell; SP/SGL lose ~25% per-thread from 1 to
// 8 threads, Doorbell loses ~60% (it spends one WQE per logical op, so the
// shared execution unit saturates first).

#include "bench_common.hpp"
#include "remem/batch.hpp"
#include "sim/sync.hpp"

namespace {

using namespace rdmasem;
using bench::FigureCollector;

FigureCollector collector(
    "Fig. 5  Per-thread MOPS vs thread count (batch 4, 32 B)",
    {"threads", "Doorbell", "SGL", "SP"});

constexpr std::uint32_t kSize = 32;
constexpr std::uint32_t kBatch = 4;

enum class Kind { kDoorbell, kSgl, kSp };

double per_thread_mops(Kind kind, std::uint32_t threads,
                       std::uint64_t reps) {
  wl::Rig rig;
  verbs::Buffer src(1 << 18), dst(1 << 18);
  auto* lmr = rig.ctx[0]->register_buffer(src, 1);
  auto* rmr = rig.ctx[1]->register_buffer(dst, 1);
  std::vector<std::unique_ptr<remem::Batcher>> batchers;
  sim::CountdownLatch done(rig.eng, threads);
  sim::Time end = 0;
  for (std::uint32_t t = 0; t < threads; ++t) {
    auto conn = rig.connect(0, 1);
    switch (kind) {
      case Kind::kDoorbell:
        batchers.push_back(
            std::make_unique<remem::DoorbellBatcher>(*conn.local));
        break;
      case Kind::kSgl:
        batchers.push_back(std::make_unique<remem::SglBatcher>(*conn.local));
        break;
      case Kind::kSp:
        batchers.push_back(
            std::make_unique<remem::SpBatcher>(*conn.local, kSize * kBatch));
        break;
    }
    auto loop = [](wl::Rig& r, remem::Batcher& b, verbs::MemoryRegion* l,
                   verbs::MemoryRegion* rm, std::uint32_t tid,
                   std::uint64_t k, sim::CountdownLatch& d,
                   sim::Time& e) -> sim::Task {
      std::vector<remem::BatchItem> items;
      for (std::uint32_t i = 0; i < kBatch; ++i)
        items.push_back(
            {{l->addr + (tid * kBatch + i) * 4096, kSize, l->key},
             rm->addr + (tid * kBatch + i) * kSize});
      for (std::uint64_t i = 0; i < k; ++i)
        (void)co_await b.flush_write(items, rm->addr + tid * 4096, rm->key);
      e = std::max(e, r.eng.now());
      d.count_down();
    };
    rig.eng.spawn(loop(rig, *batchers.back(), lmr, rmr, t, reps, done, end));
  }
  rig.eng.run();
  return static_cast<double>(kBatch) * static_cast<double>(reps) *
         threads / sim::to_us(end) / threads;
}

void fig5(std::uint32_t threads) {
  const std::uint64_t reps = bench::micro_ops(2000) / kBatch + 1;
  const double db = per_thread_mops(Kind::kDoorbell, threads, reps);
  const double sgl = per_thread_mops(Kind::kSgl, threads, reps);
  const double sp = per_thread_mops(Kind::kSp, threads, reps);
  collector.add({std::to_string(threads), util::fmt(db), util::fmt(sgl),
                 util::fmt(sp)});
}

void sweep() {
  for (std::uint32_t threads = 1; threads <= 8; ++threads) fig5(threads);
}

}  // namespace

RDMASEM_BENCH_MAIN(sweep, collector)
