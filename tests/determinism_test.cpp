// Seed-sweep determinism: a run is a pure function of (params, workload,
// seed). For every seed we execute the same workload twice in fresh
// clusters and require byte-identical observable output — the rendered
// StatsReport, the Chrome trace JSON, and every scalar the measurement
// layer produces. This is the acceptance gate for scheduler/allocator
// changes in sim/: any ordering drift in the engine shows up here as a
// one-byte diff.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "apps/dlog/dlog.hpp"
#include "cluster/stats.hpp"
#include "fault/fault.hpp"
#include "testbed.hpp"
#include "wl/microbench.hpp"

namespace v = rdmasem::verbs;
namespace sim = rdmasem::sim;
namespace fl = rdmasem::fault;
namespace dl = rdmasem::apps::dlog;
namespace wl = rdmasem::wl;
namespace cl = rdmasem::cluster;
using rdmasem::test::Testbed;

namespace {

struct RunOutput {
  std::string stats;        // StatsReport::render()
  std::string trace;        // Tracer::chrome_json()
  std::string rest;         // every other scalar, stringified
  std::uint64_t events = 0; // engine events_processed
  std::uint64_t inline_grants = 0;  // suspensions granted without an event
};

// A traced testbed under a seed-derived chaos plan, with a source buffer
// on machine 0 and a target on machine 1 for a 64 B WRITE/READ mix.
struct ChaosRig {
  Testbed tb;
  v::Buffer src{4096};
  v::Buffer dst{1 << 14};
  v::MemoryRegion* lmr;
  v::MemoryRegion* rmr;
  std::uint64_t seed;

  explicit ChaosRig(std::uint64_t s) : seed(s) {
    tb.cluster.obs().tracer.set_enabled(true);
    sim::Rng plan_rng(seed * 2654435761u + 17);
    fl::ChaosOptions opts;
    opts.events = 16;
    opts.loss_prob_max = 0.3;
    opts.window_max = sim::us(150);
    tb.cluster.inject(fl::FaultPlan::chaos(plan_rng, sim::ms(1),
                                           tb.cluster.size(),
                                           tb.cluster.params().rnic_ports,
                                           opts));
    lmr = tb.ctx[0]->register_buffer(src, 1);
    rmr = tb.ctx[1]->register_buffer(dst, 1);
  }

  // Seed-dependent access pattern so different seeds genuinely differ.
  v::WorkRequest wr_for(std::uint64_t s) const {
    const auto off = ((s * 2654435761u + seed) % 255) * 64;
    return (s % 3 == 0) ? rdmasem::wl::make_read(*lmr, 0, *rmr, off, 64)
                        : rdmasem::wl::make_write(*lmr, 0, *rmr, off, 64);
  }
};

// Closed-loop write/read mix under a seed-derived chaos plan, tracing on.
RunOutput microbench_run(std::uint64_t seed) {
  ChaosRig rig(seed);
  Testbed& tb = rig.tb;
  wl::ClientSpec spec;
  for (int t = 0; t < 2; ++t) spec.qps.push_back(tb.connect(0, 1).local);
  spec.window = 4;
  spec.ops_per_client = 250;
  spec.make_wr = [&rig](std::uint32_t, std::uint64_t s) {
    return rig.wr_for(s);
  };
  const auto r = wl::run_closed_loop(tb.eng, spec);

  RunOutput out;
  out.stats = cl::StatsReport::capture(tb.cluster).render();
  out.trace = tb.cluster.obs().tracer.chrome_json();
  out.rest = std::to_string(r.mops) + "|" + std::to_string(r.avg_latency_us) +
             "|" + std::to_string(r.p99_latency_us) + "|" +
             std::to_string(r.elapsed) + "|" + std::to_string(r.errors) +
             "|" + std::to_string(tb.eng.now()) + "|" +
             std::to_string(tb.cluster.fabric().messages()) + "|" +
             std::to_string(tb.cluster.fabric().drops());
  out.events = tb.eng.events_processed();
  return out;
}

// The dlog app end to end (coroutine pipelines, sequencer atomics,
// batching) with stats capture.
RunOutput dlog_run(std::uint64_t seed) {
  Testbed tb;
  dl::Config cfg;
  cfg.engines = 3 + static_cast<std::uint32_t>(seed % 3);
  cfg.records_per_engine = 128;
  cfg.batch_size = 1u << (seed % 4);
  dl::DistributedLog log(tb.contexts(), cfg);
  const auto r = log.run();

  RunOutput out;
  out.stats = cl::StatsReport::capture(tb.cluster).render();
  out.rest = std::to_string(r.records) + "|" + std::to_string(r.mops) + "|" +
             std::to_string(r.elapsed) + "|" +
             std::to_string(log.verify_dense_and_intact()) + "|" +
             std::to_string(tb.eng.now());
  out.events = tb.eng.events_processed();
  return out;
}

}  // namespace

class SeedSweep : public ::testing::TestWithParam<int> {};

TEST_P(SeedSweep, MicrobenchReplaysByteIdentical) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const RunOutput a = microbench_run(seed);
  const RunOutput b = microbench_run(seed);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.rest, b.rest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_FALSE(a.trace.empty());
}

TEST_P(SeedSweep, DlogReplaysByteIdentical) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const RunOutput a = dlog_run(seed);
  const RunOutput b = dlog_run(seed);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.rest, b.rest);
  EXPECT_EQ(a.events, b.events);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Range(0, 10));

// Different seeds must produce different executions (otherwise the sweep
// above proves nothing).
TEST(SeedSweep, SeedsActuallyDiffer) {
  const RunOutput a = microbench_run(1);
  const RunOutput b = microbench_run(2);
  EXPECT_NE(a.rest, b.rest);
}

// --- inline-wakeup elision ------------------------------------------------
//
// run() grants uncontended suspensions inline (Engine::try_inline_advance);
// run_events() never does, so every suspension goes through the queue.
// Both must reproduce the same execution byte for byte: an inline grant
// still counts as a processed event, so even the event counter matches.

// The chaos-faulted WRITE/READ mix, each completion logged as
// "wr_id:status@time"; drained either by run() or by run_events() alone.
RunOutput elision_run(std::uint64_t seed, bool queued) {
  ChaosRig rig(seed);
  Testbed& tb = rig.tb;
  constexpr int kQps = 2, kWindow = 4, kOpsPerWorker = 60;
  std::vector<std::string> logs(kQps * kWindow);
  for (int q = 0; q < kQps; ++q) {
    v::QueuePair* qp = tb.connect(0, 1).local;
    for (int w = 0; w < kWindow; ++w) {
      const int worker = q * kWindow + w;
      auto loop = [](ChaosRig& r, v::QueuePair* qpair, int id,
                     std::string& log) -> sim::Task {
        for (int i = 0; i < kOpsPerWorker; ++i) {
          const v::Completion c = co_await qpair->execute(
              r.wr_for(static_cast<std::uint64_t>(id * kOpsPerWorker + i)));
          log += std::to_string(c.wr_id) + ":" + v::to_string(c.status) + "@" +
                 std::to_string(c.completed_at) + " ";
        }
      };
      tb.eng.spawn_on(1, loop(rig, qp, worker, logs[worker]));
    }
  }
  if (queued) {
    while (tb.eng.run_events(1024) != 0) {
    }
  } else {
    tb.eng.run();
  }

  RunOutput out;
  out.stats = cl::StatsReport::capture(tb.cluster).render();
  out.trace = tb.cluster.obs().tracer.chrome_json();
  for (const std::string& l : logs) out.rest += l + "|";
  out.rest += std::to_string(tb.eng.now()) + "|" +
              std::to_string(tb.cluster.fabric().messages()) + "|" +
              std::to_string(tb.cluster.fabric().drops());
  out.events = tb.eng.events_processed();
  out.inline_grants = tb.eng.drain_profile().shard[0].inline_grants;
  return out;
}

TEST(DatapathToggles, InlineWakeupElisionIsByteIdentical) {
  const RunOutput fast = elision_run(6, /*queued=*/false);
  const RunOutput queued = elision_run(6, /*queued=*/true);
  EXPECT_EQ(queued.stats, fast.stats);
  EXPECT_EQ(queued.trace, fast.trace);
  EXPECT_EQ(queued.rest, fast.rest);
  EXPECT_EQ(queued.events, fast.events);
  EXPECT_FALSE(fast.trace.empty());
  // The comparison means something only if run() did elide and
  // run_events() did not.
  EXPECT_GT(fast.inline_grants, 0u);
  EXPECT_EQ(queued.inline_grants, 0u);
}
