// Two-plane profiler acceptance oracles.
//
// Plane 1 (virtual time): Resource::use splits every grant into wait vs
// service in exact picoseconds, the verbs datapath emits attribution
// records that partition each WR's doorbell->CQE window, and
// obs::CriticalPath reconciles the two to the picosecond. Plane 2 (host
// time): RDMASEM_PROF turns on engine host-clock profiling, which must
// never perturb the virtual timeline — a profiled run is byte-identical
// to an unprofiled one.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/stats.hpp"
#include "fault/fault.hpp"
#include "obs/attr.hpp"
#include "obs/critical_path.hpp"
#include "obs/engine_profile.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"
#include "testbed.hpp"
#include "wl/microbench.hpp"

namespace v = rdmasem::verbs;
namespace sim = rdmasem::sim;
namespace fl = rdmasem::fault;
namespace cl = rdmasem::cluster;
namespace wl = rdmasem::wl;
namespace obs = rdmasem::obs;
using rdmasem::test::Testbed;

namespace {

// Pins one environment knob for the lifetime of a run (the engine reads
// RDMASEM_PROF at construction) and restores the previous value after.
class EnvVar {
 public:
  EnvVar(const char* key, const std::string& value) : key_(key) {
    const char* old = std::getenv(key);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    setenv(key, value.c_str(), 1);
  }
  ~EnvVar() {
    if (had_)
      setenv(key_, saved_.c_str(), 1);
    else
      unsetenv(key_);
  }

 private:
  const char* key_;
  std::string saved_;
  bool had_ = false;
};

// ---------------------------------------------------------------------------
// Plane 1, sim layer: hand-computable two-task contention on one server.

sim::Task use_once(sim::Resource& res, sim::Duration service,
                   sim::Grant& out) {
  out = co_await res.use(service);
}

// ---------------------------------------------------------------------------
// Shared traced workload: three clients on machine 0 mixing WRITE / READ /
// FETCH_ADD against machine 3, under a loss window so retransmit loops are
// covered by the reconciliation invariant too.

struct TracedRun {
  std::string digest;          // byte-identity oracle (virtual time only)
  obs::CriticalPath cpath;     // folded from the drained spans + attrs
  sim::EngineProfile profile;  // Plane-2 snapshot (host time, NOT in digest)
  std::uint64_t closed = 0;
};

TracedRun traced_run(bool profiled, bool lossy) {
  EnvVar prof_env("RDMASEM_PROF", profiled ? "1" : "0");
  Testbed tb;
  EXPECT_EQ(tb.eng.profiling(), profiled);
  tb.cluster.obs().tracer.set_enabled(true);
  if (lossy) {
    fl::FaultPlan plan;
    plan.loss_burst(sim::us(40), sim::us(150), 3, tb.paper_qp().port, 0.3);
    tb.cluster.inject(plan);
  }

  v::Buffer src(4096), dst(1 << 14);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[3]->register_buffer(dst, 1);
  wl::ClientSpec spec;
  for (int t = 0; t < 3; ++t) spec.qps.push_back(tb.connect(0, 3).local);
  spec.window = 4;
  spec.ops_per_client = 120;
  spec.make_wr = [lmr, rmr](std::uint32_t, std::uint64_t s) {
    const auto off = ((s * 2654435761u) % 255) * 64;
    if (s % 5 == 4) {
      v::WorkRequest wr;
      wr.opcode = v::Opcode::kFetchAdd;
      wr.sg_list = {{lmr->addr, 8, lmr->key}};
      wr.remote_addr = rmr->addr + (off & ~7ull);
      wr.rkey = rmr->key;
      wr.swap_or_add = 1;
      return wr;
    }
    return (s % 3 == 0) ? wl::make_read(*lmr, 0, *rmr, off, 64)
                        : wl::make_write(*lmr, 0, *rmr, off, 64);
  };
  const auto r = wl::run_closed_loop(tb.eng, spec);

  auto& tracer = tb.cluster.obs().tracer;
  const auto spans = tracer.spans();
  const auto attrs = tracer.attr_spans();
  TracedRun out;
  out.cpath.fold(spans, attrs, tracer.res_names());
  out.closed = out.cpath.closed_wrs();
  obs::ResourceWaits waits;
  tb.cluster.for_each_resource(
      [&waits](sim::Resource& res) { waits.add(res); });
  out.digest = std::to_string(r.elapsed) + "|" + std::to_string(r.errors) +
               "|" + std::to_string(tb.eng.now()) + "|" +
               cl::StatsReport::capture(tb.cluster).render() + "|" +
               obs::chrome_trace_json(spans, attrs, tracer.res_names()) +
               "|" + waits.json() + "|" + out.cpath.json();
  out.profile = tb.eng.drain_profile();
  return out;
}

}  // namespace

TEST(ResourceWaitSplit, TwoTaskContentionExactPicoseconds) {
  sim::Engine eng;
  sim::Resource res(eng, 1, "srv");
  sim::Grant a, b;
  // A requests at t=0 on an idle server: no wait, 100 ns of service. B
  // requests at the same instant but reserves second: its wait is exactly
  // A's full service time, and it completes at 140 ns.
  eng.spawn(use_once(res, sim::ns(100), a));
  eng.spawn(use_once(res, sim::ns(40), b));
  eng.run();

  EXPECT_EQ(a.wait, 0u);
  EXPECT_EQ(a.at, sim::ns(100));
  EXPECT_EQ(b.wait, sim::ns(100));
  EXPECT_EQ(b.at, sim::ns(140));
  EXPECT_EQ(res.requests(), 2u);
  EXPECT_EQ(res.waited_requests(), 1u);
  EXPECT_EQ(res.wait_time(), sim::ns(100));
  EXPECT_EQ(res.busy_time(), sim::ns(140));
}

TEST(ResourceWaitSplit, UseThenExtraRidesServiceNotWait) {
  sim::Engine eng;
  sim::Resource res(eng, 1, "srv");
  sim::Grant a, b;
  eng.spawn(use_once(res, sim::ns(100), a));
  // use_then fuses a trailing 20 ns latency: completion moves, the wait
  // split and the server's busy accounting do not.
  auto fused = [](sim::Resource& r, sim::Grant& out) -> sim::Task {
    out = co_await r.use_then(sim::ns(40), sim::ns(20));
  };
  eng.spawn(fused(res, b));
  eng.run();

  EXPECT_EQ(b.wait, sim::ns(100));
  EXPECT_EQ(b.at, sim::ns(160));
  EXPECT_EQ(res.wait_time(), sim::ns(100));
  EXPECT_EQ(res.busy_time(), sim::ns(140));  // service only, no extra
}

TEST(CriticalPath, TwoQpFifoWaitIsPredecessorsService) {
  Testbed tb;
  tb.cluster.obs().tracer.set_enabled(true);
  v::Buffer src(4096), dst(4096);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  auto c1 = tb.connect(0, 1);
  auto c2 = tb.connect(0, 1);

  // Two WRs posted at the same instant from two QPs on the same port:
  // identical post + WQE-fetch pipelines mean both request the send EU at
  // the same virtual time, and FIFO grant order makes WR 2's queueing wait
  // exactly WR 1's EU service.
  auto one = [](v::QueuePair* qp, v::WorkRequest wr) -> sim::Task {
    co_await qp->execute(wr);
  };
  auto wr1 = rdmasem::wl::make_write(*lmr, 0, *rmr, 0, 64);
  wr1.wr_id = 1;
  auto wr2 = rdmasem::wl::make_write(*lmr, 0, *rmr, 1024, 64);
  wr2.wr_id = 2;
  tb.eng.spawn(one(c1.local, wr1));
  tb.eng.spawn(one(c2.local, wr2));
  tb.eng.run();

  auto& tracer = tb.cluster.obs().tracer;
  const auto& names = tracer.res_names();
  const std::string eu_name =
      "m0.p" + std::to_string(tb.paper_qp().port) + ".eu";
  std::uint16_t eu_id = 0xffff;
  for (std::size_t i = 0; i < names.size(); ++i)
    if (names[i] == eu_name) eu_id = static_cast<std::uint16_t>(i);
  ASSERT_NE(eu_id, 0xffff);

  const obs::AttrSpan* eu1 = nullptr;
  const obs::AttrSpan* eu2 = nullptr;
  const auto attrs = tracer.attr_spans();
  for (const auto& a : attrs) {
    if (a.res != eu_id) continue;
    if (a.wr_id == 1) eu1 = &a;
    if (a.wr_id == 2) eu2 = &a;
  }
  ASSERT_NE(eu1, nullptr);
  ASSERT_NE(eu2, nullptr);
  EXPECT_EQ(eu1->begin, eu2->begin);  // same request instant
  EXPECT_EQ(eu1->grant, eu1->begin);  // WR 1 never queues
  EXPECT_EQ(eu2->grant - eu2->begin, eu1->end - eu1->grant)
      << "WR 2's wait must equal WR 1's EU service";

  // And both WRs' records partition their doorbell->CQE windows exactly.
  obs::CriticalPath cp;
  cp.fold(tracer.spans(), attrs, names);
  EXPECT_EQ(cp.closed_wrs(), 2u);
  EXPECT_EQ(cp.reconciled_wrs(), 2u);
  EXPECT_EQ(cp.mismatched_wrs(), 0u);
  EXPECT_EQ(cp.attr_ps(), cp.e2e_ps());
}

TEST(CriticalPath, ReconcilesMixedOpcodesUnderLoss) {
  const TracedRun run = traced_run(/*profiled=*/false, /*lossy=*/true);
  EXPECT_EQ(run.closed, 360u);  // 3 clients x 120 ops
  EXPECT_EQ(run.cpath.mismatched_wrs(), 0u);
  EXPECT_EQ(run.cpath.reconciled_wrs(), run.closed);
  EXPECT_EQ(run.cpath.attr_ps(), run.cpath.e2e_ps());
  EXPECT_GT(run.cpath.attr_ps(), 0u);
}

TEST(CriticalPath, SendRecvAndRnrReconcileToo) {
  Testbed tb;
  tb.cluster.obs().tracer.set_enabled(true);
  v::Buffer src(4096), dst(4096);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[2]->register_buffer(dst, 1);
  auto conn = tb.connect(0, 2);
  // One RECV pre-posted, three SENDs: the later two take RNR-NAK retry
  // loops before a RECV shows up (posted by a responder task), exercising
  // the retransmit legs of the attribution partition.
  conn.remote->post_recv({100, {rmr->addr, 256, rmr->key}});
  auto sender = [](v::QueuePair* qp, v::MemoryRegion* mr) -> sim::Task {
    for (std::uint64_t i = 0; i < 3; ++i) {
      v::WorkRequest wr;
      wr.wr_id = i + 1;
      wr.opcode = v::Opcode::kSend;
      wr.sg_list = {{mr->addr, 128, mr->key}};
      co_await qp->execute(wr);
    }
  };
  auto responder = [](sim::Engine& eng, v::QueuePair* qp,
                      v::MemoryRegion* mr) -> sim::Task {
    co_await sim::delay(eng, sim::us(30));
    qp->post_recv({101, {mr->addr + 1024, 256, mr->key}});
    co_await sim::delay(eng, sim::us(30));
    qp->post_recv({102, {mr->addr + 2048, 256, mr->key}});
  };
  tb.eng.spawn(sender(conn.local, lmr));
  tb.eng.spawn_on(3, responder(tb.eng, conn.remote, rmr));
  tb.eng.run();

  auto& tracer = tb.cluster.obs().tracer;
  obs::CriticalPath cp;
  cp.fold(tracer.spans(), tracer.attr_spans(), tracer.res_names());
  EXPECT_GE(cp.closed_wrs(), 3u);
  EXPECT_EQ(cp.mismatched_wrs(), 0u);
  EXPECT_EQ(cp.attr_ps(), cp.e2e_ps());
}

TEST(CriticalPath, StageTotalsMatchTracerBreakdown) {
  Testbed tb;
  tb.cluster.obs().tracer.set_enabled(true);
  v::Buffer src(4096), dst(1 << 14);
  auto* lmr = tb.ctx[0]->register_buffer(src, 1);
  auto* rmr = tb.ctx[1]->register_buffer(dst, 1);
  wl::ClientSpec spec;
  for (int t = 0; t < 2; ++t) spec.qps.push_back(tb.connect(0, 1).local);
  spec.window = 3;
  spec.ops_per_client = 60;
  spec.make_wr = [lmr, rmr](std::uint32_t, std::uint64_t s) {
    return (s % 2 == 0) ? wl::make_read(*lmr, 0, *rmr, (s % 64) * 64, 64)
                        : wl::make_write(*lmr, 0, *rmr, (s % 64) * 64, 64);
  };
  wl::run_closed_loop(tb.eng, spec);

  // fold() re-derives the per-stage table from the same spans the tracer
  // aggregates — the two decompositions must agree row for row.
  auto& tracer = tb.cluster.obs().tracer;
  const obs::StageBreakdown ref = tracer.breakdown();
  obs::CriticalPath cp;
  cp.fold(tracer.spans(), tracer.attr_spans(), tracer.res_names());
  const auto& folded = cp.stages();
  ASSERT_GT(folded.spans, 0u);
  ASSERT_EQ(folded.spans, ref.spans);
  for (std::size_t i = 0; i < obs::kStageCount; ++i) {
    EXPECT_EQ(folded.rows[i].count, ref.rows[i].count) << "stage " << i;
    EXPECT_EQ(folded.rows[i].total, ref.rows[i].total) << "stage " << i;
  }
  EXPECT_EQ(folded.grand_total(), ref.grand_total());
}

TEST(TwoPlane, ProfiledRunIsByteIdenticalToUnprofiled) {
  const TracedRun baseline = traced_run(/*profiled=*/false, /*lossy=*/true);
  EXPECT_FALSE(baseline.profile.enabled);
  const TracedRun run = traced_run(/*profiled=*/true, /*lossy=*/true);
  EXPECT_EQ(run.digest, baseline.digest);
  EXPECT_TRUE(run.profile.enabled);
}

TEST(TwoPlane, EngineProfileAccountsForHostTime) {
  const TracedRun run = traced_run(/*profiled=*/true, /*lossy=*/false);
  const sim::EngineProfile& p = run.profile;
  ASSERT_TRUE(p.enabled);
  EXPECT_GE(p.runs, 1u);
  ASSERT_EQ(p.shard.size(), 1u);
  const sim::ShardProfile& row = p.shard[0];
  EXPECT_GT(row.events, 0u);
  EXPECT_GE(row.wall_ns, row.dispatch_ns);
  EXPECT_GT(row.epochs, 0u);
  EXPECT_LE(row.inline_grants, row.events);

  obs::EngineProfileAccum accum;
  accum.absorb(p);
  ASSERT_FALSE(accum.empty());
  const std::string json = accum.json();
  EXPECT_NE(json.find("rdmasem-engine-profile-v2"), std::string::npos);
  EXPECT_NE(json.find("\"events\": " + std::to_string(row.events)),
            std::string::npos);
  EXPECT_FALSE(accum.render().empty());

  // Disabled snapshots are skipped: the accumulator (and hence the bench
  // report section) stays empty for unprofiled runs.
  obs::EngineProfileAccum off;
  const TracedRun cold = traced_run(/*profiled=*/false, /*lossy=*/false);
  off.absorb(cold.profile);
  EXPECT_TRUE(off.empty());
}

TEST(TwoPlane, DrainProfileStartsAFreshWindow) {
  EnvVar prof_env("RDMASEM_PROF", "1");
  sim::Engine eng;
  auto tick = [](sim::Engine& e) -> sim::Task {
    for (int i = 0; i < 8; ++i) co_await sim::delay(e, sim::us(1));
  };
  eng.spawn(tick(eng));
  eng.run();
  const sim::EngineProfile first = eng.drain_profile();
  ASSERT_TRUE(first.enabled);
  ASSERT_EQ(first.shard.size(), 1u);
  EXPECT_GT(first.shard[0].events, 0u);
  EXPECT_GE(first.runs, 1u);

  // Nothing ran since the drain: the next window is empty.
  const sim::EngineProfile second = eng.drain_profile();
  EXPECT_EQ(second.shard[0].events, 0u);
  EXPECT_EQ(second.shard[0].epochs, 0u);
  EXPECT_EQ(second.runs, 0u);
}
