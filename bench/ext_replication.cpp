// Extension — one-sided log replication (§IV-A class III): sweep the
// replication factor and measure the append throughput cost plus the
// recovery guarantee. All replica writes are issued in parallel with the
// primary (Tailwind-style), so the marginal cost is bandwidth + the
// slowest copy, not extra round trips.

#include "apps/dlog/dlog.hpp"
#include "bench_common.hpp"

namespace {

using namespace rdmasem;
namespace dl = apps::dlog;
using bench::FigureCollector;

FigureCollector collector(
    "Ext. log replication factor (7 engines, batch 16)",
    {"replicas", "MOPS", "vs_unreplicated", "replicas_identical"});

double g_base = 0;

void ext_repl(std::uint32_t replicas) {
  wl::Rig rig;
  dl::Config cfg;
  cfg.engines = 7;
  cfg.records_per_engine = util::env_u64("RDMASEM_DLOG_RECORDS", 2048);
  cfg.batch_size = 16;
  cfg.replicas = replicas;
  dl::DistributedLog log(rig.contexts(), cfg);
  const auto r = log.run();
  RDMASEM_CHECK_MSG(log.verify_dense_and_intact(), "log corrupted");
  const bool identical = log.verify_replicas_identical();
  if (replicas == 1) g_base = r.mops;
  collector.add({std::to_string(replicas), util::fmt(r.mops),
                 g_base > 0 ? util::fmt(r.mops / g_base) + "x" : "-",
                 identical ? "yes" : "NO"});
}

void sweep() {
  for (const std::uint32_t replicas : {1, 2, 3, 4}) ext_repl(replicas);
}

}  // namespace

RDMASEM_BENCH_MAIN(sweep, collector)
