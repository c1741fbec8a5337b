// Selfbench — the engine measuring itself, in WALL-CLOCK time.
//
// Every other bench in this directory reports SIMULATED time, which by
// construction cannot regress when the scheduler gets slower. This binary
// is the host-side complement: it times the event loop with
// std::chrono::steady_clock and reports events/sec, so a regression in the
// calendar queue, the callback slab, or the coroutine frame pool shows up
// as a number CI can gate on (scripts/perf_gate.py).
//
// Workloads:
//   dispatch  — 4096 self-rescheduling actors with a tiered delay mix
//               (immediate / intra-bucket / overflow) driven through BOTH
//               the current sim::Engine and an embedded copy of the
//               pre-calendar-queue engine (binary heap of std::function
//               events, `legacy` namespace below). The identical workload
//               on both yields the machine-independent `speedup` row the
//               perf gate checks against its floor.
//   coro      — coroutine churn: tasks looping over co_await delay(),
//               exercising frame-pool reuse and the resume fast path.
//   e2e_micro — fig01-style closed-loop RDMA write microbench (4 QPs,
//               window 16) timed end to end.
//   datapath  — large-payload write/read storm mixing single-SGE and
//               multi-SGE WRs through the verbs datapath (zero-copy
//               borrow, payload pool, fused costs, wakeup elision),
//               reported as the best of several runs. A second criterion
//               rides along: datapath_allocs/steady counts
//               global-allocator hits during a steady-state single-SGE
//               write loop and a translation-thrashing random-write loop
//               via the operator new hook below — the gate requires
//               exactly zero.
//   e2e_shuffle — fig15-style small all-to-all shuffle timed end to end.
//
// The gated ratio speedup/dispatch is the median of kRatioPairs
// interleaved (calendar, legacy) pairs, one ratio per pair; every pair's
// ratio is also reported under speedup_trial/dispatch/<i> so
// scripts/perf_gate.py can print the spread. The dispatch throughput rows
// are the best of each side over those pairs.
//
// Rows land in BENCH_selfbench_engine.json (rdmasem-bench-v1 schema; the
// `mops` field carries millions of events per second, or the raw ratio for
// the speedup rows). Wall-clock numbers are machine-dependent: the checked
// in bench/selfbench_baseline.json is compared with a tolerance, and the
// speedup rows are the portable criterion. See docs/PERF.md.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <queue>
#include <string>
#include <vector>

#include "apps/shuffle/shuffle.hpp"
#include "bench_common.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

// ---------------------------------------------------------------------------
// Counting allocator hook: every global-allocator acquisition in this
// process bumps one relaxed atomic. The steady-state datapath loop below
// snapshots it around a warmed single-SGE write storm; any WR-rate heap
// traffic (a regressed pool, a re-allocating waiter table, a copied SGE
// vector) shows up as a non-zero delta the perf gate rejects. Deletes are
// not counted — a leak is the sanitizers' job; steady-state *acquisition*
// is the perf property.

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* counted_alloc(std::size_t n, std::align_val_t al) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace rdmasem;
using bench::FigureCollector;
using bench::MicroRig;

FigureCollector collector(
    "Selfbench  Engine hot-path throughput (wall clock)",
    {"workload", "engine", "Mevents/s"});

// ---------------------------------------------------------------------------
// The pre-overhaul engine core, kept verbatim in shape: a binary-heap
// std::priority_queue of events whose callbacks are std::function (boxed on
// the heap for captures over the SBO limit), popped by copy exactly as the
// seed engine's run() did. Benchmarking it in-binary keeps the comparison
// honest across compilers and machines — both engines are built with the
// same flags in the same TU.
namespace legacy {

class Engine {
 public:
  sim::Time now() const { return now_; }

  void schedule_at(sim::Time at, std::function<void()> fn) {
    queue_.push(Event{std::max(at, now_), seq_++, std::move(fn)});
  }
  void schedule_in(sim::Duration delay, std::function<void()> fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  sim::Time run() {
    while (!queue_.empty()) {
      Event ev = queue_.top();
      queue_.pop();
      now_ = ev.at;
      ++processed_;
      ev.fn();
    }
    return now_;
  }

  std::uint64_t events_processed() const { return processed_; }

 private:
  struct Event {
    sim::Time at;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  sim::Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace legacy

// ---------------------------------------------------------------------------
// Workload knobs (shrunk by the bench smoke tests via env).

std::uint64_t dispatch_budget() {
  return util::env_u64("RDMASEM_SELFBENCH_EVENTS", 2'000'000);
}
// Pending-event population: every actor always holds one event, so 4096
// events are in flight, spread over the near ring and the overflow heap by
// the delay mix. That is a stress point, not a paper-bench shape: across
// the paper benches the near ring holds 1.1-24.9 events on average, and
// their deep populations (up to ~89k in ext_qp_scalability) are far-future
// timers that sit in the overflow heap (docs/PERF.md, "Near-ring depth").
// At this depth the O(1) ring beats an O(log n) heap, while on the paper
// benches heap variants measured faster (docs/PERF.md, "Rejected: a 4-ary
// heap ..." and the Fig. 6 section's rejected designs). The 1.8x dispatch
// floor is defined on this shape.
std::uint64_t dispatch_actors() {
  return util::env_u64("RDMASEM_SELFBENCH_ACTORS", 4096);
}
std::uint64_t coro_tasks() {
  return util::env_u64("RDMASEM_SELFBENCH_TASKS", 20'000);
}
std::uint64_t coro_hops() {
  return util::env_u64("RDMASEM_SELFBENCH_HOPS", 32);
}

double secs_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Optimization barrier: `v` becomes an input of an empty asm statement, so
// the compiler must compute it and cannot drop the work that produced it.
// "r,m" lets a small value stay in a register.
template <typename T>
[[gnu::always_inline]] inline void keep(const T& v) {
  asm volatile("" : : "r,m"(v) : "memory");
}

// An in-run ratio gate compares two sides timed on the same host. Timing
// each side best-of-N in two separate blocks lets a noisy stretch land on
// one side only; instead the sides alternate in kRatioPairs (fast, legacy)
// pairs, each pair yields one ratio, and the gated ratio is the median of
// those, which one disturbed pair cannot move. Every pair's ratio is
// reported too (series "speedup_trial"), so the gate can print the spread.
constexpr int kRatioPairs = 9;

struct PairedRatio {
  double fast_best = 0;    // best fast-side throughput over all pairs
  double legacy_best = 0;  // best legacy-side throughput over all pairs
  double median = 0;       // median of the per-pair fast/legacy ratios
  std::vector<double> ratios;
};

template <typename Fast, typename Legacy>
PairedRatio paired_ratio(Fast&& fast, Legacy&& legacy) {
  PairedRatio r;
  for (int i = 0; i < kRatioPairs; ++i) {
    // Alternate which side runs first, so neither always gets the warmer
    // caches.
    double f = 0, l = 0;
    if (i % 2 == 0) {
      f = fast();
      l = legacy();
    } else {
      l = legacy();
      f = fast();
    }
    r.fast_best = std::max(r.fast_best, f);
    r.legacy_best = std::max(r.legacy_best, l);
    r.ratios.push_back(f / l);
  }
  std::vector<double> sorted = r.ratios;
  std::sort(sorted.begin(), sorted.end());
  r.median = sorted[sorted.size() / 2];
  return r;
}

// Self-rescheduling actor: every firing draws the next delay from a private
// LCG stream, mixing immediates (same-timestamp FIFO path), short delays
// (calendar ring) and far delays (overflow heap). The two extra captured
// words push the closure past std::function's SBO — matching the real
// capture sizes in fabric/rnic callbacks — while staying inside InlineFn's
// 32 bytes.
template <typename Eng>
struct Actor {
  Eng* eng;
  std::uint64_t* remaining;
  std::uint64_t rng;

  void fire() {
    if (*remaining == 0) return;
    --*remaining;
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t r = rng >> 33;
    // Mix mirrors a cluster run: mostly sub-horizon NIC/link/DMA delays
    // (ns to low µs), some same-timestamp wakeups, a tail of long timers.
    sim::Duration d = 0;
    const std::uint64_t k = r & 15;
    if (k < 4) {
      d = 0;                                        // immediate wakeup
    } else if (k < 5) {
      d = r % 8192;                                 // same/adjacent slot
    } else if (k < 15) {
      d = r % (1u << 21);                           // within the ring horizon
    } else {
      d = (1u << 21) + r % (1u << 24);              // long timer -> overflow
    }
    const std::uint64_t pad0 = rng, pad1 = r;
    eng->schedule_in(d, [this, pad0, pad1] {
      keep(pad0 + pad1);
      fire();
    });
  }
};

template <typename Eng>
double dispatch_mevents_per_sec(std::uint64_t budget) {
  Eng eng;
  std::uint64_t remaining = budget;
  const std::uint64_t n_actors = dispatch_actors();
  std::vector<Actor<Eng>> actors;
  actors.reserve(n_actors);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t a = 0; a < n_actors; ++a) {
    actors.push_back(Actor<Eng>{&eng, &remaining, a * 7919 + 1});
    actors.back().fire();
  }
  eng.run();
  const double sec = secs_since(t0);
  return static_cast<double>(eng.events_processed()) / sec / 1e6;
}

// Wall-clock throughput is one-sided noise: a run can only be slowed down
// (scheduler preemption, cold caches), never sped up. Best-of-N is the
// standard estimator for the machine's true capability and what keeps the
// perf gate's 20% tolerance meaningful.
//
// Host-speed anchor for the workload rows: the legacy engine's dispatch
// rate on a quarter of the dispatch budget, timed right before each trial
// of a row and reported as anchor/<row>. The gate divides each row by its
// own anchor (scripts/perf_gate.py). The host this runs on can slow down
// for seconds at a time; an anchor taken once, at the start of the run,
// cannot see a slow stretch that covers only the later rows, and the gate
// then fails a healthy build. Interleaved, the anchor slows down with the
// trials it normalizes.
struct Anchored {
  double best = 0;    // best throughput of the row over its trials
  double anchor = 0;  // best anchor over the same trials
};

template <typename Fn>
Anchored anchored_best_of(int n, Fn&& measure) {
  Anchored r;
  for (int i = 0; i < n; ++i) {
    r.anchor = std::max(r.anchor, dispatch_mevents_per_sec<legacy::Engine>(
                                      dispatch_budget() / 4));
    r.best = std::max(r.best, measure());
  }
  return r;
}

double coro_mevents_per_sec(std::uint64_t tasks, std::uint64_t hops) {
  sim::Engine eng;
  for (std::uint64_t t = 0; t < tasks; ++t) {
    eng.spawn([](sim::Engine& e, std::uint64_t n,
                 std::uint64_t seed) -> sim::Task {
      std::uint64_t s = seed;
      for (std::uint64_t i = 0; i < n; ++i) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        co_await sim::delay(e, (s >> 33) % sim::us(1));
      }
    }(eng, hops, t + 1));
  }
  const auto t0 = std::chrono::steady_clock::now();
  eng.run();
  const double sec = secs_since(t0);
  return static_cast<double>(eng.events_processed()) / sec / 1e6;
}

// ---------------------------------------------------------------------------
// Datapath workload: a large-payload write/read storm mixing single-SGE
// writes (the zero-copy route), 4-SGE gathers (pooled staging) and reads
// (response staging), window 1 on one QP — the uncontended latency regime
// the inline-wakeup fast path targets. Returns millions of WRs per
// wall-clock second.
double datapath_mwrs_per_sec() {
  const std::uint64_t ops =
      util::env_u64("RDMASEM_SELFBENCH_DATAPATH_OPS", 12000);
  double mwrs = 0;
  {
    const auto w0 = std::chrono::steady_clock::now();
    MicroRig rig(1 << 20, 1 << 20, 1);
    wl::ClientSpec spec;
    spec.qps = rig.qps;
    spec.window = 1;
    spec.ops_per_client = ops;
    verbs::MemoryRegion* l = rig.lmr;
    verbs::MemoryRegion* r = rig.rmr;
    spec.make_wr = [l, r](std::uint32_t, std::uint64_t s) {
      const std::uint64_t off = (s % 64) * (8 << 10);
      if (s % 4 == 2) {
        // The same 8 KB as a 4-element gather list.
        verbs::WorkRequest wr;
        wr.opcode = verbs::Opcode::kWrite;
        for (std::uint64_t i = 0; i < 4; ++i)
          wr.sg_list.push_back(
              {l->addr + off + i * 2048, 2048, l->key});
        wr.remote_addr = r->addr + off;
        wr.rkey = r->key;
        return wr;
      }
      if (s % 4 == 3) return wl::make_read(*l, off, *r, off, 8 << 10);
      return wl::make_write(*l, off, *r, off, 8 << 10);
    };
    const wl::BenchResult res = wl::run_closed_loop(rig.rig.eng, spec);
    keep(res.errors);
    mwrs = static_cast<double>(ops * rig.qps.size()) / secs_since(w0) / 1e6;
  }
  return mwrs;
}

// Steady-state allocation probe: after a warm-up that grows every lazy
// structure on the path (coroutine frame pools, the QP waiter table,
// resource FIFOs, calendar ring slots, payload pool classes), a single-SGE
// write loop must not touch the global allocator at all. A second phase
// thrashes address translation: random 32 B writes over a 64 MB region,
// 16x the RNIC metadata cache's 4 MB reach, so nearly every WR misses,
// evicts and re-inserts PTEs and misses a DRAM row; once the cache has
// filled during warm-up that path must not allocate either. Returns the
// number of allocator hits over 512 steady-state WRs of each phase — the
// gate requires exactly zero. (Sanitizer builds pass buffers straight
// through the pools by design, so this row is only meaningful — and only
// gated — on plain builds, where the perf gate runs.)
std::uint64_t datapath_steady_allocs() {
  MicroRig rig(1 << 16, 64 << 20, 1);
  std::uint64_t delta = ~0ull;
  auto loop = [](MicroRig& r, std::uint64_t* out) -> sim::Task {
    verbs::QueuePair& qp = *r.qps[0];
    for (int i = 0; i < 256; ++i)
      (void)co_await qp.execute(wl::make_write(*r.lmr, 0, *r.rmr, 0, 4096));
    std::uint64_t a0 = g_heap_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < 512; ++i)
      (void)co_await qp.execute(wl::make_write(*r.lmr, 0, *r.rmr, 0, 4096));
    const std::uint64_t seq =
        g_heap_allocs.load(std::memory_order_relaxed) - a0;

    sim::Rng rng(7);
    const std::uint64_t slots = r.rmr->length / 32;
    for (int i = 0; i < 4096; ++i)
      (void)co_await qp.execute(
          wl::make_write(*r.lmr, 0, *r.rmr, rng.uniform(slots) * 32, 32));
    a0 = g_heap_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < 512; ++i)
      (void)co_await qp.execute(
          wl::make_write(*r.lmr, 0, *r.rmr, rng.uniform(slots) * 32, 32));
    *out = seq + (g_heap_allocs.load(std::memory_order_relaxed) - a0);
  };
  rig.rig.eng.spawn(loop(rig, &delta));
  rig.rig.eng.run();
  return delta;
}

void add(const char* workload, const char* engine, double mev) {
  collector.add({workload, engine, util::fmt(mev)});
  bench::point_mops(workload, engine, mev);
}

// A workload row plus its anchor, as anchor/<workload>/<engine>.
void add(const char* workload, const char* engine, const Anchored& a) {
  bench::point_mops("anchor", std::string(workload) + "/" + engine, a.anchor);
  add(workload, engine, a.best);
}

// Records a paired ratio: its median as the gated speedup/<name> point,
// every pair's ratio as speedup_trial/<name>/<i>.
void add_ratio(const std::string& name, const char* label,
               const PairedRatio& r) {
  bench::point_mops("speedup", name, r.median);
  collector.add({"speedup", label, util::fmt(r.median)});
  for (std::size_t i = 0; i < r.ratios.size(); ++i)
    bench::point_mops("speedup_trial", name + "/" + std::to_string(i),
                      r.ratios[i]);
}

void selfbench() {
  const PairedRatio dispatch = paired_ratio(
      [] { return dispatch_mevents_per_sec<sim::Engine>(dispatch_budget()); },
      [] {
        return dispatch_mevents_per_sec<legacy::Engine>(dispatch_budget());
      });
  add("dispatch", "legacy", dispatch.legacy_best);
  add("dispatch", "calendar", dispatch.fast_best);
  add_ratio("dispatch", "calendar/legacy (median pair)", dispatch);

  add("coro", "calendar", anchored_best_of(3, [] {
    return coro_mevents_per_sec(coro_tasks(), coro_hops());
  }));

  add("e2e_micro", "calendar", anchored_best_of(2, [] {
    // fig01-style closed-loop write microbench, timed end to end.
    const auto w0 = std::chrono::steady_clock::now();
    MicroRig rig(1 << 14, 1 << 14, 4);
    rig.run(wl::make_write(*rig.lmr, 0, *rig.rmr, 0, 64), 16,
            bench::micro_ops(4000));
    return static_cast<double>(rig.rig.eng.events_processed()) /
           secs_since(w0) / 1e6;
  }));
  add("datapath", "fast", anchored_best_of(9, datapath_mwrs_per_sec));
  const std::uint64_t dp_allocs = datapath_steady_allocs();
  bench::point_mops("datapath_allocs", "steady",
                    static_cast<double>(dp_allocs));
  collector.add({"datapath_allocs", "steady (512 seq + 512 thrash WRs)",
                 std::to_string(dp_allocs)});

  add("e2e_shuffle", "calendar", anchored_best_of(2, [] {
    // fig15-style small all-to-all shuffle, timed end to end.
    const auto w0 = std::chrono::steady_clock::now();
    wl::Rig rig(hw::ModelParams::connectx3_cluster());
    apps::shuffle::Config cfg;
    cfg.machines = 4;
    cfg.executors = 4;
    cfg.entries_per_executor = util::env_u64("RDMASEM_SHUFFLE_ENTRIES", 6000);
    cfg.batch = apps::shuffle::BatchMode::kSgl;
    apps::shuffle::Shuffle shuffle(rig.contexts(), cfg);
    shuffle.run();
    bench::absorb(rig.cluster);
    return static_cast<double>(rig.eng.events_processed()) /
           secs_since(w0) / 1e6;
  }));
}

}  // namespace

RDMASEM_BENCH_MAIN(selfbench, collector)
