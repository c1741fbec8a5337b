// Extension — push vs pull shuffle (§IV-C design decision): the paper
// chooses push "since in-bound RDMA Write has higher performance than
// out-bound RDMA Read" (contrasting the pull-based design it cites).
// Sweep the transfer granularity: the write/read asymmetry dominates at
// per-entry granularity and washes out once chunks are bandwidth-bound.

#include "apps/shuffle/shuffle.hpp"
#include "bench_common.hpp"

namespace {

using namespace rdmasem;
namespace sh = apps::shuffle;
using bench::FigureCollector;

FigureCollector collector(
    "Ext. push vs pull shuffle (8 executors, MOPS)",
    {"chunk_entries", "push", "pull", "push_advantage"});

double run_dir(sh::Direction dir, std::uint32_t chunk) {
  wl::Rig rig;
  sh::Config cfg;
  cfg.executors = 8;
  cfg.entries_per_executor = util::env_u64("RDMASEM_SHUFFLE_ENTRIES", 3000);
  cfg.direction = dir;
  cfg.batch = chunk <= 1 ? sh::BatchMode::kNone : sh::BatchMode::kSgl;
  cfg.batch_size = chunk;
  sh::Shuffle s(rig.contexts(), cfg);
  const auto r = s.run();
  RDMASEM_CHECK_MSG(s.received_checksum() == s.sent_checksum(),
                    "shuffle corrupted data");
  return r.mops;
}

void ext_push_pull(std::uint32_t chunk) {
  const double push = run_dir(sh::Direction::kPush, chunk);
  const double pull = run_dir(sh::Direction::kPull, chunk);
  collector.add({std::to_string(chunk), util::fmt(push), util::fmt(pull),
                 util::fmt(push / pull) + "x"});
}

void sweep() {
  for (const std::uint32_t chunk : {1, 2, 4, 8, 16, 32}) ext_push_pull(chunk);
}

}  // namespace

RDMASEM_BENCH_MAIN(sweep, collector)
