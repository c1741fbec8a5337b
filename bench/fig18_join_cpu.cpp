// Fig. 18 — CPU consumption of the join's batch schedule: SP vs SGL as the
// entry size grows (64 B .. 4096 B), 7 executors.
//
// The metric is the CPU time the simulator charges the sender per entry:
// SP pays tuple work + hash + the gather memcpy + its share of the post;
// SGL skips the memcpy (the RNIC gathers). Paper anchor: SGL saves
// ~67% CPU at 4 KB entries.

#include "bench_common.hpp"

namespace {

using namespace rdmasem;
using bench::FigureCollector;

FigureCollector collector(
    "Fig. 18  Sender CPU cost per entry, SP vs SGL (7 executors)",
    {"entry_size", "SP_ns_per_entry", "SGL_ns_per_entry", "SGL_saving"});

// Exactly the costs the simulator charges per entry on the send path (see
// SpBatcher/SglBatcher + QueuePair::post_cost).
void fig18(std::uint32_t entry) {
  const std::uint32_t batch = 16;
  hw::ModelParams p;
  const double common = sim::to_ns(p.cpu_tuple_work + p.cpu_hash) +
                        sim::to_ns(p.cpu_wqe_prep + p.cpu_mmio) / batch;
  const double sp = common + sim::to_ns(p.memcpy_time(entry));
  const double sgl = common;
  collector.add({util::fmt_bytes(entry), util::fmt(sp, 1), util::fmt(sgl, 1),
                 util::fmt(100.0 * (1.0 - sgl / sp), 1) + "%"});
}

void sweep() {
  for (const std::uint32_t entry : {64, 256, 1024, 4096}) fig18(entry);
}

}  // namespace

RDMASEM_BENCH_MAIN(sweep, collector)
