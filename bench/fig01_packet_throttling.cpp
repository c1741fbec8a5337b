// Fig. 1 — Packet throttling: RDMA Write/Read latency and throughput vs
// payload size (2 B .. 8 KB).
//
// Paper anchors: write/read latency 1.16/2.00 us for small payloads rising
// to ~1.79/2.22 us near 256 B; throughput flat at ~4.7/4.2 MOPS below
// ~256 B, then bandwidth-bound decay.

#include "bench_common.hpp"

namespace {

using namespace rdmasem;
using bench::FigureCollector;
using bench::MicroRig;

FigureCollector collector(
    "Fig. 1  Packet Throttling (Write/Read latency & throughput vs size)",
    {"size", "write_lat_us", "read_lat_us", "write_MOPS", "read_MOPS",
     "errors"});

void fig1(std::uint32_t size) {
  const std::string x = util::fmt_bytes(size);
  double wlat = 0, rlat = 0;
  wl::BenchResult wr, rr;
  {
    MicroRig rig(1 << 14, 1 << 14, 1);
    const auto wres = rig.run(wl::make_write(*rig.lmr, 0, *rig.rmr, 0, size),
                              1, bench::micro_ops(400));
    wlat = wres.avg_latency_us;
    bench::point("write_lat", x, wres);
  }
  {
    MicroRig rig(1 << 14, 1 << 14, 1);
    const auto rres = rig.run(wl::make_read(*rig.lmr, 0, *rig.rmr, 0, size),
                              1, bench::micro_ops(400));
    rlat = rres.avg_latency_us;
    bench::point("read_lat", x, rres);
  }
  {
    MicroRig rig(1 << 14, 1 << 14, 4);
    wr = rig.run(wl::make_write(*rig.lmr, 0, *rig.rmr, 0, size), 16,
                 bench::micro_ops());
    bench::point("write_tput", x, wr);
  }
  {
    MicroRig rig(1 << 14, 1 << 14, 4);
    rr = rig.run(wl::make_read(*rig.lmr, 0, *rig.rmr, 0, size), 16,
                 bench::micro_ops());
    bench::point("read_tput", x, rr);
  }
  wr.errors += rr.errors;
  for (std::size_t i = 0; i < wr.by_status.size(); ++i)
    wr.by_status[i] += rr.by_status[i];
  collector.add({x, util::fmt(wlat), util::fmt(rlat), util::fmt(wr.mops),
                 util::fmt(rr.mops), bench::errors_cell(wr)});
}

void sweep() {
  for (const std::uint32_t size :
       {2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192})
    fig1(size);
}

}  // namespace

RDMASEM_BENCH_MAIN(sweep, collector)
