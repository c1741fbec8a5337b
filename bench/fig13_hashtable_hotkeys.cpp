// Fig. 13 — Consolidation sensitivity in the disaggregated hashtable:
//   (a) throughput vs hot-key proportion (1/4 .. 1/32)
//   (b) throughput vs consolidation batch size theta (1 .. 16)
//
// Paper shape: (a) degrades gently (~6 MOPS drop from 1/4 to 1/32);
// (b) grows sublinearly with theta.

#include "apps/hashtable/hashtable.hpp"
#include "bench_common.hpp"
#include "sim/sync.hpp"
#include "wl/zipf.hpp"

namespace {

using namespace rdmasem;
namespace ht = apps::hashtable;
using bench::FigureCollector;

FigureCollector collector(
    "Fig. 13  Hashtable consolidation: hot proportion (a) and theta (b)",
    {"panel", "x", "MOPS"});

double run_config(double hot_fraction, std::uint32_t theta) {
  wl::Rig rig;
  ht::Config cfg;
  cfg.num_keys = util::env_u64("RDMASEM_HT_KEYS", 1 << 14);
  cfg.numa_aware = true;
  cfg.consolidate = true;
  cfg.hot_fraction = hot_fraction;
  cfg.theta = theta;
  ht::DisaggHashTable table(*rig.ctx[0], cfg);
  const std::uint32_t fes = 6, pipeline = 4;
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
        wl::ZipfGenerator zipf(c.num_keys, 0.99, 300 + id);
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

void fig13a(std::uint32_t denom) {
  const double mops = run_config(1.0 / denom, 16);
  collector.add({"a:hot-prop", "1/" + std::to_string(denom),
                 util::fmt(mops)});
}

void fig13b(std::uint32_t theta) {
  const double mops = run_config(1.0 / 4, theta);
  collector.add({"b:theta", std::to_string(theta), util::fmt(mops)});
}

void sweep() {
  for (const std::uint32_t denom : {4, 8, 16, 32}) fig13a(denom);
  for (const std::uint32_t theta : {1, 2, 4, 8, 16}) fig13b(theta);
}

}  // namespace

RDMASEM_BENCH_MAIN(sweep, collector)
