// Extension — mixed read/write workloads on the disaggregated hashtable.
// The paper evaluates 100% writes (Fig. 12); real KV front-ends serve
// YCSB-style mixes. Sweeps the write fraction and compares the basic
// table against the fully optimized one.
//
// Reads interact with consolidation in both directions: dirty hot blocks
// are served from the front-end's burst buffer (no network!), clean ones
// need a remote read, and cold reads pay version + slot round trips.

#include "apps/hashtable/hashtable.hpp"
#include "bench_common.hpp"
#include "sim/sync.hpp"
#include "wl/zipf.hpp"

namespace {

using namespace rdmasem;
namespace ht = apps::hashtable;
using bench::FigureCollector;

FigureCollector collector(
    "Ext. hashtable mixed workloads (MOPS, 6 front-ends)",
    {"write_pct", "Basic", "Optimized", "speedup"});

double run_mixed(double write_fraction, bool optimized) {
  wl::Rig rig;
  ht::Config cfg;
  cfg.num_keys = util::env_u64("RDMASEM_HT_KEYS", 1 << 14);
  cfg.numa_aware = optimized;
  cfg.consolidate = optimized;
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
                     std::uint32_t id, std::uint64_t n, double wf,
                     std::vector<std::byte>& v, sim::CountdownLatch& d,
                     sim::Time& e) -> sim::Task {
        wl::ZipfGenerator zipf(c.num_keys, 0.99, 500 + id);
        sim::Rng coin(900 + id);
        for (std::uint64_t k = 0; k < n; ++k) {
          const std::uint64_t key = zipf.next();
          if (coin.chance(wf)) {
            co_await f.put(key, v);
          } else {
            (void)co_await f.get(key);
          }
        }
        e = std::max(e, r.eng.now());
        d.count_down();
        if (d.remaining() == 0) co_await f.drain();
      };
      rig.eng.spawn(loop(rig, *workers.back(), cfg, i * pipeline + w, ops,
                         write_fraction, value, done, end));
    }
  }
  rig.eng.run();
  return static_cast<double>(fes) * pipeline * static_cast<double>(ops) /
         sim::to_us(end);
}

void ext_mixed(int write_pct) {
  const double wf = static_cast<double>(write_pct) / 100.0;
  const double basic = run_mixed(wf, false);
  const double opt = run_mixed(wf, true);
  collector.add({std::to_string(write_pct) + "%", util::fmt(basic),
                 util::fmt(opt), util::fmt(opt / basic) + "x"});
}

void sweep() {
  for (const int write_pct : {100, 50, 20, 5}) ext_mixed(write_pct);
}

}  // namespace

RDMASEM_BENCH_MAIN(sweep, collector)
