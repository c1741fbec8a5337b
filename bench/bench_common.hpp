#pragma once

// Shared pieces of the figure/table reproduction harness.
//
// Every bench binary follows the same pattern:
//   * a sweep function walks the figure's points in plain loops; each
//     point runs the simulation once and appends a row to a collector
//     (and a structured row to the report);
//   * main() runs the sweep, prints the paper-style table (the rows a
//     reader compares against the paper's figure), then the profile
//     sections and BENCH_<name>.json (finish()).
//
// Workload sizes honor the RDMASEM_* environment knobs (README) so the
// paper-scale runs are reproducible on bigger machines.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/attr.hpp"
#include "obs/bench_export.hpp"
#include "obs/critical_path.hpp"
#include "obs/engine_profile.hpp"
#include "obs/json.hpp"
#include "util/env.hpp"
#include "util/table.hpp"
#include "wl/microbench.hpp"
#include "wl/rig.hpp"

namespace rdmasem::bench {

// Ordered row collector: rows keyed by (series, x) so sweeps can arrive in
// any order but print grouped by series.
class FigureCollector {
 public:
  explicit FigureCollector(std::string title, std::vector<std::string> header)
      : title_(std::move(title)), header_(std::move(header)) {}

  void add(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void print() const {
    util::Table t(header_);
    t.set_title(title_);
    for (const auto& r : rows_) t.add_row(r);
    t.print();
  }

  bool empty() const { return rows_.empty(); }

  const std::string& title() const { return title_; }
  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Process-wide structured report (BENCH_<name>.json) and the merged
// lifecycle-trace sink. Sweep points run on short-lived clusters, so each
// run's spans and stage totals are folded in here before the cluster dies.
inline obs::BenchReport& report() {
  static obs::BenchReport r;
  return r;
}
inline std::vector<obs::Span>& trace_spans() {
  static std::vector<obs::Span> s;
  return s;
}
// Attribution-record sink and the PROCESS-WIDE resource-name table the
// sunk records index into. Every cluster interns names in its own order,
// so absorb() remaps each batch before sinking it.
inline std::vector<obs::AttrSpan>& trace_attrs() {
  static std::vector<obs::AttrSpan> a;
  return a;
}
inline std::vector<std::string>& trace_res_names() {
  static std::vector<std::string> n;
  return n;
}
inline std::uint16_t intern_trace_res(const std::string& name) {
  auto& names = trace_res_names();
  for (std::size_t i = 0; i < names.size(); ++i)
    if (names[i] == name) return static_cast<std::uint16_t>(i);
  names.push_back(name);
  return static_cast<std::uint16_t>(names.size() - 1);
}
// Plane-1 aggregates (per-resource queueing waits, per-WR critical path)
// and the Plane-2 host-time engine profile, all merged across the
// process's sweep-point clusters.
inline obs::ResourceWaits& resource_waits() {
  static obs::ResourceWaits w;
  return w;
}
inline obs::CriticalPath& critical_path() {
  static obs::CriticalPath c;
  return c;
}
inline obs::EngineProfileAccum& engine_profile() {
  static obs::EngineProfileAccum a;
  return a;
}

// Folds one finished cluster's observability state into the process-wide
// report: stage totals merge, trace spans + attribution records move into
// the shared sinks (critical path folded first, while the attribution ids
// are still cluster-local), every live resource's wait counters fold into
// the bottleneck table, the engine's host-time profile is drained, and
// the metrics registry is sampled once so the report carries a final
// counter/gauge snapshot (last absorbed cluster wins). Call once per
// cluster: resource counters are cumulative and would double-fold.
inline void absorb(cluster::Cluster& c) {
  obs::Hub& hub = c.obs();
  report().absorb(hub.tracer.breakdown());
  if (hub.tracer.enabled()) {
    auto spans = hub.tracer.drain();
    auto attrs = hub.tracer.drain_attrs();
    const auto& names = hub.tracer.res_names();
    critical_path().fold(spans, attrs, names);
    std::vector<std::uint16_t> remap(names.size());
    for (std::size_t i = 0; i < names.size(); ++i)
      remap[i] = intern_trace_res(names[i]);
    for (auto& a : attrs)
      if (a.res < remap.size()) a.res = remap[a.res];
    auto& asink = trace_attrs();
    asink.insert(asink.end(), attrs.begin(), attrs.end());
    auto& sink = trace_spans();
    sink.insert(sink.end(), spans.begin(), spans.end());
  }
  c.for_each_resource([](sim::Resource& r) { resource_waits().add(r); });
  engine_profile().absorb(c.engine().drain_profile());
  hub.metrics.sample(c.engine().now());
  report().set_metrics_json(hub.metrics.json());
}

// Records one structured sweep point alongside the human-readable table
// row the bench also emits.
inline void point(const std::string& series, const std::string& x,
                  const wl::BenchResult& r) {
  obs::BenchRow row;
  row.series = series;
  row.x = x;
  row.mops = r.mops;
  row.avg_us = r.avg_latency_us;
  row.p50_us = r.p50_latency_us;
  row.p99_us = r.p99_latency_us;
  row.p999_us = r.p999_latency_us;
  row.errors = r.errors;
  report().add(std::move(row));
}

// Throughput-only variant for benches that measure outside run_closed_loop
// (e.g. the lock/sequencer loops of fig10).
inline void point_mops(const std::string& series, const std::string& x,
                       double mops) {
  obs::BenchRow row;
  row.series = series;
  row.x = x;
  row.mops = mops;
  report().add(std::move(row));
}

// Called by RDMASEM_BENCH_MAIN after the paper table prints: names the
// report after the binary, mirrors the table, writes the merged Chrome
// trace (when tracing ran) and BENCH_<name>.json into RDMASEM_BENCH_OUT
// (default "."; set to the empty string to disable file output).
inline void finish(const char* argv0, const FigureCollector& collector) {
  const std::string dir = util::env_str("RDMASEM_BENCH_OUT", ".");
  if (dir.empty()) return;
  std::string name = argv0 != nullptr ? argv0 : "bench";
  const auto slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  obs::BenchReport& r = report();
  r.set_name(name);
  r.set_table(collector.title(), collector.header(), collector.rows());
  const std::string stages = r.stages().render();
  if (!stages.empty()) std::fputs(stages.c_str(), stdout);
  const std::string waits = resource_waits().render();
  if (!waits.empty()) std::fputs(waits.c_str(), stdout);
  const std::string cpath = critical_path().render();
  if (!cpath.empty()) std::fputs(cpath.c_str(), stdout);
  const std::string eprof = engine_profile().render();
  if (!eprof.empty()) std::fputs(eprof.c_str(), stdout);
  if (!resource_waits().empty())
    r.set_resource_waits_json(resource_waits().json());
  if (!critical_path().empty())
    r.set_critical_path_json(critical_path().json());
  if (!engine_profile().empty())
    r.set_engine_profile_json(engine_profile().json());
  if (!trace_spans().empty()) {
    const std::string tpath = dir + "/trace_" + name + ".json";
    if (obs::write_text_file(
            tpath, obs::chrome_trace_json(trace_spans(), trace_attrs(),
                                          trace_res_names())))
      r.set_trace_file(tpath);
  }
  const std::string out = r.write(dir);
  if (!out.empty()) std::fprintf(stderr, "bench report: %s\n", out.c_str());
}

// What a rig's workload does with the bytes in its buffers.
enum class Contents {
  // The workload reads memory values (CAS/FAA results, content checks):
  // its buffers are fresh and zero-filled.
  kRead,
  // The workload only times WRITE/READ traffic and never looks at a byte.
  // The model's timing does not depend on payload bytes for WRITE/READ, so
  // such a rig may take storage an earlier rig left dirty.
  kUnread,
};

// Per-process pool of host storage for rig buffers. A sweep that builds
// dozens of rigs over 256 MB-1 GB regions (Fig. 6) would otherwise map and
// zero every buffer afresh while its few thousand ops touch a sliver of
// it. Only Contents::kUnread requests are served from the pool; a kRead
// request always gets a new zero-filled Buffer. Every buffer handed out
// draws a fresh simulated address (Buffer::readdress), so the address
// sequence, and with it every report, is that of constructing new buffers.
// Idle storage is kept for one size at a time, the size of the latest
// kUnread request, so the pool never holds more than the largest set of
// buffers of one size that were alive together.
class BufferPool {
 public:
  static BufferPool& instance() {
    static BufferPool pool;
    return pool;
  }

  verbs::Buffer take(std::size_t size, Contents contents) {
    if (contents == Contents::kRead) return verbs::Buffer(size);
    if (size != size_) {
      idle_.clear();
      size_ = size;
    }
    if (idle_.empty()) return verbs::Buffer(size);
    verbs::Buffer b = std::move(idle_.back());
    idle_.pop_back();
    b.readdress();
    return b;
  }

  // Storage of another size than the pool keeps is freed.
  void give_back(verbs::Buffer&& b) {
    if (b.size() == size_ && b.data() != nullptr)
      idle_.push_back(std::move(b));
  }

  std::size_t idle() const { return idle_.size(); }

 private:
  std::size_t size_ = 0;
  std::vector<verbs::Buffer> idle_;
};

// A microbench rig: machine0 -> machine1 with per-thread QPs over one
// src/dst buffer pair (the §III experiments). `contents` says whether the
// workload reads the buffers' bytes; see Contents and BufferPool.
struct MicroRig {
  wl::Rig rig;
  verbs::Buffer src;
  verbs::Buffer dst;
  verbs::MemoryRegion* lmr;
  verbs::MemoryRegion* rmr;
  std::vector<verbs::QueuePair*> qps;

  MicroRig(std::size_t src_size, std::size_t dst_size, std::uint32_t threads,
           hw::ModelParams params = hw::ModelParams::connectx3_cluster(),
           Contents contents = Contents::kRead)
      : rig(params),
        src(BufferPool::instance().take(src_size, contents)),
        dst(BufferPool::instance().take(dst_size, contents)) {
    lmr = rig.ctx[0]->register_buffer(src, 1);
    rmr = rig.ctx[1]->register_buffer(dst, 1);
    for (std::uint32_t t = 0; t < threads; ++t)
      qps.push_back(rig.connect(0, 1).local);
  }
  ~MicroRig() {
    BufferPool::instance().give_back(std::move(src));
    BufferPool::instance().give_back(std::move(dst));
  }
  MicroRig(const MicroRig&) = delete;
  MicroRig& operator=(const MicroRig&) = delete;

  wl::BenchResult run(const verbs::WorkRequest& proto, std::uint32_t window,
                      std::uint64_t ops_per_client) {
    wl::ClientSpec spec;
    spec.qps = qps;
    spec.window = window;
    spec.ops_per_client = ops_per_client;
    spec.make_wr = [proto](std::uint32_t, std::uint64_t) { return proto; };
    wl::BenchResult r = wl::run_closed_loop(rig.eng, spec);
    absorb(rig.cluster);
    return r;
  }
};

// Standard env-scaled op count (per client) for microbench sweeps.
inline std::uint64_t micro_ops(std::uint64_t def = 8000) {
  return util::env_u64("RDMASEM_MICRO_OPS", def);
}

// Table cell for the errors column of a paper-style table.
inline std::string errors_cell(const wl::BenchResult& r) {
  return r.errors ? std::to_string(r.errors) + " (" + r.error_breakdown() + ")"
                  : "0";
}

}  // namespace rdmasem::bench

// Custom main: run the sweep, then print the paper table and write the
// report. The binaries take no arguments (workload sizes come from the
// RDMASEM_* env knobs); any argument is rejected before a point runs, so a
// typo cannot leave a partial BENCH_<name>.json over a real one.
#define RDMASEM_BENCH_MAIN(sweep, collector)                             \
  int main(int argc, char** argv) {                                      \
    if (argc > 1) {                                                      \
      std::fprintf(stderr, "usage: %s (takes no arguments)\n", argv[0]); \
      return 2;                                                          \
    }                                                                    \
    sweep();                                                             \
    (collector).print();                                                 \
    ::rdmasem::bench::finish(argv[0], (collector));                      \
    return 0;                                                            \
  }
