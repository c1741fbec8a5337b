// Fig. 16 — Distributed join:
//   (a) execution time vs batch size (1..32), theta in {4,16}, +/- NUMA
//   (b) 1/time vs executor count vs the ideal linear-scaling line,
//       unbatched and batch 4/16.
//
// Paper shape: batching cuts time by up to ~37%; NUMA-awareness by
// 12-30%; batch 16 stays within ~22% of ideal scaling.

#include "apps/join/join.hpp"
#include "bench_common.hpp"

namespace {

using namespace rdmasem;
namespace jn = apps::join;
using bench::FigureCollector;

FigureCollector collector(
    "Fig. 16  Distributed join: batch size (a) and thread scaling (b)",
    {"panel", "x", "config", "seconds", "inv_seconds"});

jn::Result run_join_cfg(std::uint32_t executors, std::uint32_t batch,
                        bool numa) {
  wl::Rig rig;
  jn::Config cfg;
  cfg.tuples = util::env_u64("RDMASEM_JOIN_TUPLES", 1 << 17);
  cfg.executors = executors;
  cfg.batch_size = batch;
  cfg.numa_aware = numa;
  const auto r = jn::run_join(rig.contexts(), cfg);
  RDMASEM_CHECK_MSG(r.verified(), "join produced wrong match count");
  return r;
}

void fig16a(std::uint32_t batch, std::uint32_t theta, bool numa) {
  const double secs = run_join_cfg(theta, batch, numa).seconds;
  const std::string config = std::string(numa ? "NUMA" : "noNUMA") +
                             ",theta=" + std::to_string(theta);
  collector.add({"a:batch", std::to_string(batch), config, util::fmt(secs, 3),
                 util::fmt(1.0 / secs, 3)});
}

void fig16b(std::uint32_t execs, std::uint32_t batch) {
  const double secs = run_join_cfg(execs, batch, true).seconds;
  const std::string config =
      batch <= 1 ? "w/o batch" : "lambda=" + std::to_string(batch);
  collector.add({"b:threads", std::to_string(execs), config,
                 util::fmt(secs, 3), util::fmt(1.0 / secs, 3)});
}

// Row order is pinned by the report digests: batch varies fastest in (a),
// executors in (b).
void sweep() {
  for (const bool numa : {false, true})
    for (const std::uint32_t theta : {4, 16})
      for (const std::uint32_t batch : {1, 2, 4, 8, 16, 32})
        fig16a(batch, theta, numa);
  for (const std::uint32_t batch : {1, 4, 16})
    for (const std::uint32_t execs : {1, 2, 4, 8, 12, 16}) fig16b(execs, batch);
}

}  // namespace

RDMASEM_BENCH_MAIN(sweep, collector)
