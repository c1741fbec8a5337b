// Table III — remote access latency/throughput across NUMA placements:
// (local core, local MR socket) x (remote core, remote MR socket), each
// "own" (the RNIC's socket) or "alt" (the other socket). 64 B writes.
//
// Paper shape: everything-own is fastest; the all-alt corner costs
// ~30-55% more latency; mem-alt alone costs only ~4-10%.

#include "bench_common.hpp"

namespace {

using namespace rdmasem;
using bench::FigureCollector;

FigureCollector collector(
    "Table III  Remote inter-socket access (64 B write, lat us / MOPS)",
    {"local(core,mem)", "remote(core,mem)", "lat_us", "MOPS"});

struct Placement {
  bool alt_core_local, alt_mem_local, alt_core_remote, alt_mem_remote;
};

std::pair<double, double> measure(const Placement& pl, std::uint64_t ops) {
  wl::Rig rig;
  const auto own = rig.cluster.params().rnic_socket;  // socket 1
  const auto alt = 1 - own;
  verbs::Buffer src(4096), dst(4096);
  auto* lmr = rig.ctx[0]->register_buffer(src, pl.alt_mem_local ? alt : own);
  auto* rmr = rig.ctx[1]->register_buffer(dst, pl.alt_mem_remote ? alt : own);
  verbs::QpConfig ca;
  ca.port = own;
  ca.core_socket = pl.alt_core_local ? alt : own;
  verbs::QpConfig cb;
  cb.port = own;
  cb.core_socket = pl.alt_core_remote ? alt : own;
  auto conn = rig.connect(0, 1, ca, cb);

  // Latency: window 1.
  wl::ClientSpec lat_spec;
  lat_spec.qps = {conn.local};
  lat_spec.window = 1;
  lat_spec.ops_per_client = ops / 4;
  lat_spec.make_wr = [&](std::uint32_t, std::uint64_t) {
    return wl::make_write(*lmr, 0, *rmr, 0, 64);
  };
  const double lat = wl::run_closed_loop(rig.eng, lat_spec).avg_latency_us;

  // Throughput: window 16 on a fresh rig (same placement).
  wl::Rig rig2;
  verbs::Buffer src2(4096), dst2(4096);
  auto* lmr2 = rig2.ctx[0]->register_buffer(src2, pl.alt_mem_local ? alt : own);
  auto* rmr2 = rig2.ctx[1]->register_buffer(dst2, pl.alt_mem_remote ? alt : own);
  std::vector<verbs::QueuePair*> qps;
  for (int t = 0; t < 2; ++t) qps.push_back(rig2.connect(0, 1, ca, cb).local);
  wl::ClientSpec tp_spec;
  tp_spec.qps = qps;
  tp_spec.window = 16;
  tp_spec.ops_per_client = ops;
  tp_spec.make_wr = [&](std::uint32_t, std::uint64_t) {
    return wl::make_write(*lmr2, 0, *rmr2, 0, 64);
  };
  const double mops = wl::run_closed_loop(rig2.eng, tp_spec).mops;
  return {lat, mops};
}

const char* own_alt(bool alt_core, bool alt_mem) {
  if (!alt_core && !alt_mem) return "own core, own mem";
  if (!alt_core && alt_mem) return "own core, alt mem";
  if (alt_core && !alt_mem) return "alt core, own mem";
  return "alt core, alt mem";
}

void table3(std::uint32_t idx) {
  const Placement pl{(idx & 8) != 0, (idx & 4) != 0, (idx & 2) != 0,
                     (idx & 1) != 0};
  const auto [lat, mops] = measure(pl, bench::micro_ops(2000));
  collector.add({own_alt(pl.alt_core_local, pl.alt_mem_local),
                 own_alt(pl.alt_core_remote, pl.alt_mem_remote),
                 util::fmt(lat), util::fmt(mops)});
}

void sweep() {
  for (std::uint32_t idx = 0; idx < 16; ++idx) table3(idx);
}

}  // namespace

RDMASEM_BENCH_MAIN(sweep, collector)
