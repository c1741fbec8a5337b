// Fig. 12 — Disaggregated hashtable optimization breakdown: throughput vs
// front-end count for Basic / +NUMA / +Reorder(theta=4) / +Reorder(theta=16).
// Zipf(0.99) keys, 100% writes, 64 B values.
//
// Paper shape: +NUMA ~ +14% over basic; +Reorder peaks at ~1.85-2.7x,
// around 24 MOPS near 6 front-ends.

#include "apps/hashtable/hashtable.hpp"
#include "bench_common.hpp"
#include "sim/sync.hpp"
#include "wl/zipf.hpp"

namespace {

using namespace rdmasem;
namespace ht = apps::hashtable;
using bench::FigureCollector;

FigureCollector collector(
    "Fig. 12  Disaggregated hashtable optimizations (MOPS vs front-ends)",
    {"front_ends", "Basic", "+NUMA", "+Reorder(t=4)", "+Reorder(t=16)"});

double run_config(std::uint32_t fes, bool numa, bool consolidate,
                  std::uint32_t theta) {
  wl::Rig rig;
  ht::Config cfg;
  cfg.num_keys = util::env_u64("RDMASEM_HT_KEYS", 1 << 14);
  cfg.numa_aware = numa;
  cfg.consolidate = consolidate;
  cfg.theta = theta;
  ht::DisaggHashTable table(*rig.ctx[0], cfg);
  const std::uint32_t pipeline = 4;
  const std::uint64_t ops = util::env_u64("RDMASEM_HT_OPS", 600);
  std::vector<std::unique_ptr<ht::FrontEnd>> workers;
  sim::CountdownLatch done(rig.eng, fes * pipeline);
  sim::Time end = 0;
  std::vector<std::byte> value(cfg.value_size);
  for (std::uint32_t i = 0; i < fes; ++i) {
    workers.push_back(table.add_front_end(*rig.ctx[1 + i % 7], (i / 7) % 2));
    for (std::uint32_t w = 0; w < pipeline; ++w) {
      auto loop = [](wl::Rig& r, ht::FrontEnd& f, const ht::Config& c,
                     std::uint32_t id, std::uint64_t n,
                     std::vector<std::byte>& v, sim::CountdownLatch& d,
                     sim::Time& e) -> sim::Task {
        wl::ZipfGenerator zipf(c.num_keys, 0.99, 100 + id);
        for (std::uint64_t k = 0; k < n; ++k) co_await f.put(zipf.next(), v);
        e = std::max(e, r.eng.now());
        d.count_down();
        if (d.remaining() == 0) co_await f.drain();
      };
      rig.eng.spawn(
          loop(rig, *workers.back(), cfg, i * pipeline + w, ops, value,
               done, end));
    }
  }
  rig.eng.run();
  return static_cast<double>(fes) * pipeline * static_cast<double>(ops) /
         sim::to_us(end);
}

void fig12(std::uint32_t fes) {
  const double basic = run_config(fes, false, false, 16);
  const double numa = run_config(fes, true, false, 16);
  const double r4 = run_config(fes, true, true, 4);
  const double r16 = run_config(fes, true, true, 16);
  collector.add({std::to_string(fes), util::fmt(basic), util::fmt(numa),
                 util::fmt(r4), util::fmt(r16)});
}

void sweep() {
  for (const std::uint32_t fes : {1, 2, 4, 6, 8, 10, 12, 14}) fig12(fes);
}

}  // namespace

RDMASEM_BENCH_MAIN(sweep, collector)
