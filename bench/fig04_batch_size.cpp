// Fig. 4 — Throughput vs batch size (1..32), 32 B payload, plus local
// readv/writev baselines.
//
// Paper shape: SP and SGL scale strongly with batch size; Doorbell gains
// little (~2.5x over the whole range); SP tops out near ~44%/117% of the
// local write/read baselines.

#include "bench_common.hpp"
#include "hw/dram.hpp"
#include "remem/batch.hpp"

namespace {

using namespace rdmasem;
using bench::FigureCollector;

FigureCollector collector(
    "Fig. 4  Batch strategies vs batch size (32 B payload, MOPS)",
    {"batch", "Doorbell", "SGL", "SP", "Local-W", "Local-R"});

constexpr std::uint32_t kSize = 32;

template <typename MakeBatcher>
double run_batcher(MakeBatcher make, std::uint32_t batch,
                   std::uint64_t reps) {
  wl::Rig rig;
  verbs::Buffer src(1 << 18), dst(1 << 18);
  auto* lmr = rig.ctx[0]->register_buffer(src, 1);
  auto* rmr = rig.ctx[1]->register_buffer(dst, 1);
  auto conn = rig.connect(0, 1);
  auto batcher = make(*conn.local);
  double out = 0;
  auto task = [](wl::Rig& r, remem::Batcher& b, verbs::MemoryRegion* l,
                 verbs::MemoryRegion* rm, std::uint32_t n, std::uint64_t k,
                 double& res) -> sim::Task {
    std::vector<remem::BatchItem> items;
    for (std::uint32_t i = 0; i < n; ++i)
      items.push_back({{l->addr + i * 4096, kSize, l->key},
                       rm->addr + i * kSize});
    const sim::Time start = r.eng.now();
    for (std::uint64_t i = 0; i < k; ++i)
      (void)co_await b.flush_write(items, rm->addr, rm->key);
    res = static_cast<double>(n) * static_cast<double>(k) /
          sim::to_us(r.eng.now() - start);
  };
  rig.eng.spawn(task(rig, *batcher, lmr, rmr, batch, reps, out));
  rig.eng.run();
  return out;
}

double local_rw(bool write, std::uint32_t batch, std::uint64_t reps) {
  hw::ModelParams p;
  hw::DramModel dram(p);
  sim::Duration total = 0;
  std::uint64_t addr = 0;
  const auto op = write ? hw::DramModel::Op::kWrite : hw::DramModel::Op::kRead;
  for (std::uint64_t i = 0; i < reps; ++i) {
    total += p.cpu_memcpy_overhead * 4;  // one readv/writev call
    for (std::uint32_t b = 0; b < batch; ++b) {
      total += dram.access(addr, kSize, op);
      addr += 4096;
    }
  }
  return static_cast<double>(batch) * static_cast<double>(reps) /
         sim::to_us(total);
}

void fig4(std::uint32_t batch) {
  const std::uint64_t reps = bench::micro_ops(4000) / batch + 1;
  const double db = run_batcher(
      [](verbs::QueuePair& qp) {
        return std::make_unique<remem::DoorbellBatcher>(qp);
      },
      batch, reps);
  const double sgl = run_batcher(
      [](verbs::QueuePair& qp) {
        return std::make_unique<remem::SglBatcher>(qp);
      },
      batch, reps);
  const double sp = run_batcher(
      [batch](verbs::QueuePair& qp) {
        return std::make_unique<remem::SpBatcher>(qp, kSize * batch);
      },
      batch, reps);
  const double lw = local_rw(true, batch, reps);
  const double lr = local_rw(false, batch, reps);
  collector.add({std::to_string(batch), util::fmt(db), util::fmt(sgl),
                 util::fmt(sp), util::fmt(lw), util::fmt(lr)});
}

void sweep() {
  for (const std::uint32_t batch : {1, 2, 4, 8, 16, 32}) fig4(batch);
}

}  // namespace

RDMASEM_BENCH_MAIN(sweep, collector)
