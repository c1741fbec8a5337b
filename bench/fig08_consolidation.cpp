// Fig. 8 — IO consolidation: 32 B random writes into 1 KB-aligned blocks,
// native path vs consolidation with theta in {1, 2, 4, 8, 16}.
//
// Paper anchor: theta=16 reaches ~7.5x the native throughput.

#include "bench_common.hpp"
#include "remem/consolidate.hpp"

namespace {

using namespace rdmasem;
using bench::FigureCollector;

FigureCollector collector(
    "Fig. 8  IO consolidation throughput (32 B random writes, 1 KB blocks)",
    {"theta", "MOPS", "speedup_vs_native"});

constexpr std::size_t kRegion = 1 << 16;
constexpr std::uint32_t kBlock = 1024;
constexpr std::uint32_t kSize = 32;

double native_mops(std::uint64_t ops) {
  bench::MicroRig rig(4096, kRegion, 1);
  sim::Rng rng(3);
  wl::ClientSpec spec;
  spec.qps = rig.qps;
  spec.window = 1;
  spec.ops_per_client = ops;
  spec.make_wr = [&](std::uint32_t, std::uint64_t) {
    return wl::make_write(*rig.lmr, 0, *rig.rmr,
                          rng.uniform(kRegion / kSize) * kSize, kSize);
  };
  return wl::run_closed_loop(rig.rig.eng, spec).mops;
}

double consolidated_mops(std::uint32_t theta, std::uint64_t ops) {
  wl::Rig rig;
  verbs::Buffer dst(kRegion);
  auto* rmr = rig.ctx[1]->register_buffer(dst, 1);
  auto conn = rig.connect(0, 1);
  remem::Consolidator cons(*conn.local, rmr->addr, rmr->key, kRegion,
                           {.block_size = kBlock,
                            .theta = theta,
                            .timeout = sim::ms(10)});
  double out = 0;
  auto task = [](wl::Rig& r, remem::Consolidator& c, std::uint64_t n,
                 double& res) -> sim::Task {
    sim::Rng rng(3);
    std::vector<std::byte> payload(kSize);
    const sim::Time start = r.eng.now();
    for (std::uint64_t i = 0; i < n; ++i) {
      // Skewed: writes hit a handful of hot blocks (the paper's stated
      // use case for consolidation).
      const std::uint64_t block = rng.uniform(4);
      const std::uint64_t slot = rng.uniform(kBlock / kSize);
      co_await c.write(block * kBlock + slot * kSize, payload);
    }
    const sim::Time staged = r.eng.now();
    co_await c.flush_all();
    res = static_cast<double>(n) /
          sim::to_us(std::max(r.eng.now(), staged) - start);
  };
  rig.eng.spawn(task(rig, cons, ops, out));
  rig.eng.run();
  return out;
}

double g_native = 0;

// theta == 0: native writes, the baseline every later row is relative to.
void fig8(std::uint32_t theta) {
  const std::uint64_t ops = bench::micro_ops(6000);
  double mops = 0;
  if (theta == 0) {
    mops = native_mops(ops);
    g_native = mops;
  } else {
    mops = consolidated_mops(theta, ops);
  }
  const double speedup = g_native > 0 ? mops / g_native : 0;
  collector.add({theta == 0 ? "native" : std::to_string(theta),
                 util::fmt(mops), util::fmt(speedup)});
}

void sweep() {
  for (const std::uint32_t theta : {0, 1, 2, 4, 8, 16}) fig8(theta);
}

}  // namespace

RDMASEM_BENCH_MAIN(sweep, collector)
