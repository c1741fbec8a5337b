// Fig. 3 — Vector-IO batch strategies (Doorbell / SGL / SP / Local) vs
// payload size, batch sizes 4 and 16, one-to-one connection.
//
// Paper shape: flat below ~128 B; SGL/SP decay linearly as payload grows;
// Doorbell stays flat (and low). Local = batched local memory writes.

#include <memory>

#include "bench_common.hpp"
#include "hw/dram.hpp"
#include "remem/batch.hpp"

namespace {

using namespace rdmasem;
using bench::FigureCollector;

FigureCollector collector(
    "Fig. 3  Batch strategies vs payload size (MOPS, batch 4 and 16)",
    {"size", "batch", "Doorbell", "SGL", "SP", "Local"});

// Closed-loop flush loop over scattered pieces of `size` bytes.
double batcher_mops(remem::Batcher& b, wl::Rig& rig,
                    verbs::MemoryRegion* lmr, verbs::MemoryRegion* rmr,
                    std::uint32_t size, std::uint32_t batch,
                    std::uint64_t reps) {
  double out = 0;
  auto task = [](wl::Rig& r, remem::Batcher& bb, verbs::MemoryRegion* l,
                 verbs::MemoryRegion* rm, std::uint32_t sz, std::uint32_t n,
                 std::uint64_t k, double& res) -> sim::Task {
    std::vector<remem::BatchItem> items;
    const std::uint64_t stride = 4096;
    for (std::uint32_t i = 0; i < n; ++i)
      items.push_back({{l->addr + i * stride, sz, l->key},
                       rm->addr + i * static_cast<std::uint64_t>(sz)});
    const sim::Time start = r.eng.now();
    for (std::uint64_t i = 0; i < k; ++i)
      (void)co_await bb.flush_write(items, rm->addr, rm->key);
    res = static_cast<double>(n) * static_cast<double>(k) /
          sim::to_us(r.eng.now() - start);
  };
  rig.eng.spawn(task(rig, b, lmr, rmr, size, batch, reps, out));
  rig.eng.run();
  return out;
}

// Local baseline: batched local memory writes (writev-style) through the
// DRAM model.
double local_mops(std::uint32_t size, std::uint32_t batch,
                  std::uint64_t reps) {
  hw::ModelParams p;
  hw::DramModel dram(p);
  sim::Duration total = 0;
  std::uint64_t addr = 0;
  for (std::uint64_t i = 0; i < reps; ++i) {
    // One syscall-ish overhead per writev, then `batch` scattered writes.
    total += p.cpu_memcpy_overhead * 4;
    for (std::uint32_t b = 0; b < batch; ++b) {
      total += dram.access(addr, size, hw::DramModel::Op::kWrite);
      addr += 4096;
    }
  }
  return static_cast<double>(batch) * static_cast<double>(reps) /
         sim::to_us(total);
}

void fig3(std::uint32_t size, std::uint32_t batch) {
  const std::uint64_t reps = bench::micro_ops(2000) / batch + 1;
  double db = 0, sgl = 0, sp = 0;
  {
    wl::Rig rig;
    verbs::Buffer src(1 << 18), dst(1 << 18);
    auto* lmr = rig.ctx[0]->register_buffer(src, 1);
    auto* rmr = rig.ctx[1]->register_buffer(dst, 1);
    auto conn = rig.connect(0, 1);
    remem::DoorbellBatcher b(*conn.local);
    db = batcher_mops(b, rig, lmr, rmr, size, batch, reps);
  }
  {
    wl::Rig rig;
    verbs::Buffer src(1 << 18), dst(1 << 18);
    auto* lmr = rig.ctx[0]->register_buffer(src, 1);
    auto* rmr = rig.ctx[1]->register_buffer(dst, 1);
    auto conn = rig.connect(0, 1);
    remem::SglBatcher b(*conn.local);
    sgl = batcher_mops(b, rig, lmr, rmr, size, batch, reps);
  }
  {
    wl::Rig rig;
    verbs::Buffer src(1 << 18), dst(1 << 18);
    auto* lmr = rig.ctx[0]->register_buffer(src, 1);
    auto* rmr = rig.ctx[1]->register_buffer(dst, 1);
    auto conn = rig.connect(0, 1);
    remem::SpBatcher b(*conn.local, static_cast<std::size_t>(size) * batch);
    sp = batcher_mops(b, rig, lmr, rmr, size, batch, reps);
  }
  const double local = local_mops(size, batch, reps);
  collector.add({util::fmt_bytes(size), std::to_string(batch),
                 util::fmt(db), util::fmt(sgl), util::fmt(sp),
                 util::fmt(local)});
}

void sweep() {
  for (const std::uint32_t batch : {4, 16})
    for (const std::uint32_t size :
         {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048})
      fig3(size, batch);
}

}  // namespace

RDMASEM_BENCH_MAIN(sweep, collector)
