// rdmasem_perfbench — host-time benchmark of the rdmasem simulator.
//
// One process runs one workload for a fixed host-time budget. Each
// iteration builds a fresh rig, runs the workload to completion, verifies
// the application output, folds every simulated statistic into a digest
// and tears the rig down. Host time is taken from outside, around the
// layers' public calls; simulated statistics are read from the layers'
// public counters after the run. Nothing inside src/ is instrumented.
//
//   rdmasem_perfbench --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> [--size full|smoke]
//                     [--expect-digest <hex>] [--spans-out <file>]
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics when --trace 0 and the per-layer metrics
// when --trace 1. See README.md in this directory for the workloads and
// the layer -> metric -> workload map.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "apps/hashtable/hashtable.hpp"
#include "apps/shuffle/shuffle.hpp"
#include "hw/dram.hpp"
#include "hw/mcache.hpp"
#include "sim/rng.hpp"
#include "sim/sync.hpp"
#include "util/stats.hpp"
#include "wl/microbench.hpp"
#include "wl/rig.hpp"
#include "wl/zipf.hpp"

namespace {

using namespace rdmasem;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv_word(std::uint64_t h, std::uint64_t w) {
  for (int i = 0; i < 8; ++i) {
    h ^= (w >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- spans -----------------------------------------------------------------
//
// The benchmark's own spans: one per timed call, with its parent, kept in
// memory and written out at exit by traced runs. Every host-time metric is
// a sum of span durations, so untraced and traced runs time the same way.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint32_t iteration = 0;
};

class SpanLog {
 public:
  SpanLog() : t0_(Clock::now()) {}

  int open(const char* name) {
    Span s;
    s.name = name;
    s.start_ns = now_ns();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.iteration = iteration_;
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int idx) {
    spans_[idx].end_ns = now_ns();
    stack_.pop_back();
  }
  void begin_iteration(std::uint32_t i) {
    iteration_ = i;
    first_of_iteration_ = spans_.size();
  }
  // Summed duration (s) of the current iteration's spans called `name`.
  double seconds(const std::string& name) const {
    std::int64_t ns = 0;
    for (std::size_t i = first_of_iteration_; i < spans_.size(); ++i)
      if (spans_[i].name == name) ns += spans_[i].end_ns - spans_[i].start_ns;
    return static_cast<double>(ns) * 1e-9;
  }

  // Chrome/Perfetto trace-event JSON ("X" complete events, microseconds).
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"iteration\":%u}}\n",
                   i ? "," : "", s.name.c_str(),
                   static_cast<double>(s.start_ns) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                   s.parent, s.iteration);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0_)
        .count();
  }
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::uint32_t iteration_ = 0;
  std::size_t first_of_iteration_ = 0;
};

class Scope {
 public:
  Scope(SpanLog& log, const char* name) : log_(log), idx_(log.open(name)) {}
  ~Scope() { log_.close(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int idx_;
};

// --- per-iteration results -------------------------------------------------

// Everything the model computed. Folded into the digest, so every field
// must be a pure function of (workload, size, seed).
struct SimStats {
  double mops = 0;    // simulated application Mops/s
  double p99_us = 0;  // simulated p99 operation latency
  std::uint64_t elapsed_ps = 0;
  std::uint64_t ops = 0;  // application operations
  std::uint64_t payload_bytes = 0;
  std::uint64_t events = 0;
  std::uint64_t wr_posted = 0, wr_completed = 0, wr_failed = 0;
  std::uint64_t zero_copy = 0, pool_hits = 0, pool_misses = 0;
  std::uint64_t mcache_hits = 0, mcache_misses = 0;
  std::uint64_t eu_busy_ps = 0, eu_wait_ps = 0;
  std::uint64_t atomic_busy_ps = 0, atomic_wait_ps = 0;
  std::uint64_t dma_busy_ps = 0, dma_wait_ps = 0;
  std::uint64_t row_hits = 0, row_misses = 0, mem_channel_wait_ps = 0;
  std::uint64_t net_messages = 0, net_bytes = 0, net_drops = 0;
  std::uint64_t link_wait_ps = 0;
  std::uint64_t cas_attempts = 0, cas_failures = 0;
  std::uint64_t staged = 0, merges = 0, flushes = 0;
  std::uint64_t app_checksum = 0;  // workload-defined output checksum

  std::uint64_t digest() const {
    const std::uint64_t words[] = {
        std::bit_cast<std::uint64_t>(mops),
        std::bit_cast<std::uint64_t>(p99_us),
        elapsed_ps, ops, payload_bytes, events,
        wr_posted, wr_completed, wr_failed, zero_copy, pool_hits,
        pool_misses, mcache_hits, mcache_misses, eu_busy_ps, eu_wait_ps,
        atomic_busy_ps, atomic_wait_ps, dma_busy_ps, dma_wait_ps, row_hits,
        row_misses, mem_channel_wait_ps, net_messages, net_bytes, net_drops,
        link_wait_ps, cas_attempts, cas_failures, staged, merges, flushes,
        app_checksum};
    std::uint64_t h = kFnvBasis;
    for (std::uint64_t w : words) h = fnv_word(h, w);
    return h;
  }
};

// Host-side engine profile (RDMASEM_PROF=1), summed over shards.
struct ProfileSums {
  std::uint64_t events = 0, epochs = 0;
  std::uint64_t dispatch_ns = 0, park_ns = 0, merge_ns = 0, wall_ns = 0;
};

// A workload's own address stream, replayed by the traced run's probes of
// hw::MetadataCache::access and hw::DramModel::access.
struct ProbeStream {
  struct Access {
    std::uint64_t addr;
    std::uint32_t size;
    bool write;
  };
  std::vector<Access> accesses;
};

struct IterResult {
  SimStats sim;
  double rss_mb = 0;  // resident set once the run has drained
  std::uint64_t failed = 0;  // error completions + verification mismatches
  ProfileSums prof;
  ProbeStream probe;
};

// Resident set size now, from /proc/self/statm. Read at each iteration's
// high point rather than taken from getrusage's ru_maxrss, which the
// kernel updates lazily and so reads differently across identical runs.
double current_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0, resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// Reads every layer's public counters once the run has drained.
void collect(cluster::Cluster& c, SimStats& s) {
  s.events = c.engine().events_processed();
  for (cluster::MachineId m = 0; m < c.size(); ++m) {
    cluster::Machine& mach = c.machine(m);
    rnic::Rnic& nic = mach.rnic();
    s.mcache_hits += nic.mcache().hits();
    s.mcache_misses += nic.mcache().misses();
    for (rnic::PortId p = 0; p < nic.port_count(); ++p) {
      s.eu_busy_ps += nic.port(p).eu.busy_time();
      s.eu_wait_ps += nic.port(p).eu.wait_time();
      s.atomic_busy_ps += nic.port(p).atomic_unit.busy_time();
      s.atomic_wait_ps += nic.port(p).atomic_unit.wait_time();
    }
    s.dma_busy_ps += nic.dma().busy_time();
    s.dma_wait_ps += nic.dma().wait_time();
    for (hw::SocketId k = 0; k < c.params().sockets_per_machine; ++k) {
      s.row_hits += mach.dram(k).row_hits();
      s.row_misses += mach.dram(k).row_misses();
      s.mem_channel_wait_ps += mach.mem_channel(k).wait_time();
    }
  }
  net::Fabric& fab = c.fabric();
  s.net_messages = fab.messages();
  s.net_bytes = fab.bytes();
  s.net_drops = fab.drops();
  for (cluster::MachineId m = 0; m < c.size(); ++m)
    for (std::uint32_t p = 0; p < c.params().rnic_ports; ++p)
      s.link_wait_ps +=
          fab.tx_link(m, p).wait_time() + fab.rx_link(m, p).wait_time();
  const obs::Hub& h = c.obs();
  s.wr_posted = h.wr_posted.value();
  s.wr_completed = h.wr_completed.value();
  s.wr_failed = h.wr_failed.value();
  s.zero_copy = h.zero_copy_wrs.value();
  s.pool_hits = h.payload_pool_hits.value();
  s.pool_misses = h.payload_pool_misses.value();
  s.cas_attempts = h.cas_attempts.value();
  s.cas_failures = h.cas_failures.value();
  s.staged = h.consolidate_staged.value();
  s.merges = h.consolidate_merges.value();
  s.flushes = h.consolidate_flushes.value();
}

ProfileSums drain_profile(sim::Engine& eng) {
  ProfileSums p;
  const sim::EngineProfile prof = eng.drain_profile();
  for (const sim::ShardProfile& sh : prof.shard) {
    p.events += sh.events;
    p.epochs += sh.epochs;
    p.dispatch_ns += sh.dispatch_ns;
    p.park_ns += sh.barrier_park_ns;
    p.merge_ns += sh.merge_ns;
    p.wall_ns += sh.wall_ns;
  }
  return p;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string expect_digest;
  std::string spans_out;
};

// --- micro_rand_bigmr ------------------------------------------------------
//
// Two machines, 4 RC QPs at window 16, random 32 B WRITEs and READs in
// equal share over a 256 MB registered pair: the Fig. 6 shape.
IterResult iterate_micro(const Options& o, SpanLog& log, bool record) {
  constexpr std::uint32_t kClients = 4, kWindow = 16, kSize = 32;
  const std::size_t region = o.smoke ? (8u << 20) : (256u << 20);
  const std::uint64_t ops_per_client = o.smoke ? 500 : 12000;
  const std::uint64_t slots = region / kSize;

  IterResult r;
  std::unique_ptr<wl::Rig> rig;
  std::optional<verbs::Buffer> src, dst;
  verbs::MemoryRegion* lmr = nullptr;
  verbs::MemoryRegion* rmr = nullptr;
  std::vector<verbs::QueuePair*> qps;
  {
    Scope setup(log, "setup");
    {
      Scope s(log, "cluster.build");
      hw::ModelParams p = hw::ModelParams::connectx3_cluster();
      p.machines = 2;
      rig = std::make_unique<wl::Rig>(p);
    }
    {
      Scope s(log, "verbs.buffer_alloc");
      src.emplace(region);
      dst.emplace(region);
    }
    {
      Scope s(log, "verbs.register");
      lmr = rig->ctx[0]->register_buffer(*src, 1);
      rmr = rig->ctx[1]->register_buffer(*dst, 1);
    }
    {
      Scope s(log, "verbs.connect");
      for (std::uint32_t c = 0; c < kClients; ++c)
        qps.push_back(rig->connect(0, 1).local);
    }
  }

  std::vector<sim::Rng> rngs;
  for (std::uint32_t c = 0; c < kClients; ++c)
    rngs.emplace_back(mix64(o.seed * 0x100 + c));
  std::uint64_t checksum = kFnvBasis;
  wl::ClientSpec spec;
  spec.qps = qps;
  spec.window = kWindow;
  spec.ops_per_client = ops_per_client;
  spec.make_wr = [&](std::uint32_t c, std::uint64_t) {
    sim::Rng& g = rngs[c];
    const bool write = g.uniform(2) == 0;
    const std::uint64_t src_off = g.uniform(slots) * kSize;
    const std::uint64_t dst_off = g.uniform(slots) * kSize;
    checksum = fnv_word(checksum, (dst_off << 1) | (write ? 1 : 0));
    if (record)
      r.probe.accesses.push_back({rmr->addr + dst_off, kSize, write});
    return write ? wl::make_write(*lmr, src_off, *rmr, dst_off, kSize)
                 : wl::make_read(*lmr, src_off, *rmr, dst_off, kSize);
  };
  wl::BenchResult br;
  {
    Scope s(log, "sim.run");
    br = wl::run_closed_loop(rig->eng, spec);
  }
  {
    Scope s(log, "verify");
    collect(rig->cluster, r.sim);
    r.rss_mb = current_rss_mb();
    r.sim.mops = br.mops;
    r.sim.p99_us = br.p99_latency_us;
    r.sim.elapsed_ps = br.elapsed;
    r.sim.ops = kClients * ops_per_client;
    r.sim.payload_bytes = r.sim.ops * kSize;
    r.sim.app_checksum = checksum;
    r.failed = br.errors;
    r.prof = drain_profile(rig->eng);
  }
  {
    Scope s(log, "cluster.teardown");
    rig.reset();
    src.reset();
    dst.reset();
  }
  return r;
}

// --- shuffle_sp16 / shuffle_sp16_shards4 -----------------------------------
//
// Eight machines, 16 executors, push shuffle with SP batching at batch 16.
constexpr std::uint32_t kShuffleExecutors = 16;
constexpr std::uint32_t kShuffleEntry = 64;

std::uint64_t shuffle_key(std::uint64_t seed, std::uint32_t e,
                          std::uint64_t i) {
  return mix64(mix64(seed) ^ (static_cast<std::uint64_t>(e) << 40) ^ i);
}

IterResult iterate_shuffle(const Options& o, SpanLog& log, bool record) {
  const std::uint64_t entries = o.smoke ? 400 : 6000;
  IterResult r;
  std::unique_ptr<wl::Rig> rig;
  std::unique_ptr<apps::shuffle::Shuffle> shuffle;
  {
    Scope setup(log, "setup");
    {
      Scope s(log, "cluster.build");
      rig = std::make_unique<wl::Rig>();
    }
    {
      Scope s(log, "apps.init");
      apps::shuffle::Config cfg;
      cfg.executors = kShuffleExecutors;
      cfg.entries_per_executor = entries;
      cfg.entry_size = kShuffleEntry;
      cfg.batch = apps::shuffle::BatchMode::kSp;
      cfg.batch_size = 16;
      cfg.numa_aware = true;
      cfg.seed = o.seed;
      const std::uint64_t seed = o.seed;
      cfg.keygen = [seed](std::uint32_t e, std::uint64_t i) {
        return shuffle_key(seed, e, i);
      };
      shuffle = std::make_unique<apps::shuffle::Shuffle>(rig->contexts(), cfg);
    }
  }
  apps::shuffle::Result res;
  {
    Scope s(log, "sim.run");
    res = shuffle->run();
  }
  {
    Scope s(log, "verify");
    // Received == sent, and every entry landed at the executor its key
    // hashes to: the multiset of received keys must equal the generated one.
    std::uint64_t want_keys = 0, got_keys = 0, got_entries = 0;
    for (std::uint32_t e = 0; e < kShuffleExecutors; ++e)
      for (std::uint64_t i = 0; i < entries; ++i)
        want_keys += mix64(shuffle_key(o.seed, e, i));
    std::uint64_t misplaced = 0;
    for (std::uint32_t d = 0; d < kShuffleExecutors; ++d) {
      shuffle->visit_received(d, [&](std::span<const std::byte> entry) {
        std::uint64_t key = 0;
        std::memcpy(&key, entry.data(), 8);
        got_keys += mix64(key);
        ++got_entries;
        if (apps::shuffle::Shuffle::dest_of(key, kShuffleExecutors) != d)
          ++misplaced;
      });
    }
    const std::uint64_t total = entries * kShuffleExecutors;
    const bool ok = shuffle->received_checksum() == shuffle->sent_checksum() &&
                    got_entries == total && got_keys == want_keys &&
                    res.entries == total;
    collect(rig->cluster, r.sim);
    r.rss_mb = current_rss_mb();
    r.sim.mops = res.mops;
    r.sim.p99_us =
        static_cast<double>(rig->cluster.obs().wr_latency_ns.quantile_bound(
            0.99)) *
        1e-3;
    r.sim.elapsed_ps = res.elapsed;
    r.sim.ops = total;
    r.sim.payload_bytes = total * kShuffleEntry;
    r.sim.app_checksum = fnv_word(shuffle->received_checksum(), got_keys);
    r.failed = r.sim.wr_failed + misplaced + (ok ? 0 : total);
    r.prof = drain_profile(rig->eng);
  }
  if (record) {
    // Receive-side stream: entries land in per-(src, dst) sub-regions in
    // generation order; distinct 4 GB windows keep destinations apart.
    std::vector<std::uint64_t> cursor(kShuffleExecutors * kShuffleExecutors);
    const std::uint64_t pair_bytes = 1u << 24;
    for (std::uint64_t i = 0; i < entries; ++i)
      for (std::uint32_t e = 0; e < kShuffleExecutors; ++e) {
        const std::uint32_t d = apps::shuffle::Shuffle::dest_of(
            shuffle_key(o.seed, e, i), kShuffleExecutors);
        std::uint64_t& cur = cursor[d * kShuffleExecutors + e];
        const std::uint64_t addr = (static_cast<std::uint64_t>(d) << 32) +
                                   e * pair_bytes + cur++ * kShuffleEntry;
        r.probe.accesses.push_back({addr, kShuffleEntry, true});
      }
  }
  {
    Scope s(log, "cluster.teardown");
    shuffle.reset();
    rig.reset();
  }
  return r;
}

// --- kv_zipf_mixed ---------------------------------------------------------
//
// apps::hashtable with numa_aware + consolidate, six front-ends x pipeline
// 4 against a backend on machine 0, zipf 0.99 keys, 50% puts / 50% gets.
//
// Every key is owned by one client coroutine, so "the last value put" is
// well defined: a client's gets must return its own last put, and after
// the run the backend image must hold every key's last put. A hot block
// (4 entries) is shared by four front-ends that own one entry each: their
// burst-buffer flushes contend for the block's remote spinlock, yet each
// flush's dirty extent is that front-end's own entry. (A front-end owning
// two entries of a block could flush a stale shadow copy of a peer's
// entry lying between them; that is the app's write-behind contract, not
// something a checker can pin down.)
constexpr std::uint32_t kKvFrontEnds = 6, kKvPipeline = 4;
constexpr std::uint32_t kKvClients = kKvFrontEnds * kKvPipeline;
constexpr std::uint32_t kKvValue = 64;
constexpr std::uint64_t kKvBlockEntries = 4;  // Config::entries_per_block

// The i-th key of front-end f. Keys are striped over the two backend
// sockets by their low bit, and entry j of block b on a socket holds the
// key with index 4b + j on that socket. Entry j of block b belongs to
// front-end (b + j) % 6, so over six consecutive blocks each front-end
// owns one entry in four of them, on both sockets: 8 keys per cycle.
std::uint64_t kv_fe_key(std::uint32_t f, std::uint64_t i) {
  const std::uint64_t cycle = i / 8, t = i % 8;
  std::uint64_t seen = 0;
  for (std::uint64_t m = 0; m < kKvFrontEnds; ++m) {
    const std::uint64_t j = (f + kKvFrontEnds - m) % kKvFrontEnds;
    if (j >= kKvBlockEntries || seen++ != t / 2) continue;
    const std::uint64_t block = cycle * kKvFrontEnds + m;
    return 2 * (kKvBlockEntries * block + j) + (t % 2);
  }
  RDMASEM_CHECK_MSG(false, "unreachable");
  return 0;
}

// Key owned by client (front-end f, pipeline slot w) for its local zipf
// rank r: the front-end's keys are dealt round-robin to its pipeline.
std::uint64_t kv_key(std::uint32_t f, std::uint32_t w, std::uint64_t r) {
  return kv_fe_key(f, r * kKvPipeline + w);
}

// Value of the seq-th put by `client` to `key`: header + filler derived
// from all three, so torn or misdirected values are detected.
void kv_encode(std::uint64_t key, std::uint32_t client, std::uint32_t seq,
               std::byte* out) {
  std::memcpy(out, &key, 8);
  const std::uint64_t tag = (static_cast<std::uint64_t>(client) << 32) | seq;
  std::memcpy(out + 8, &tag, 8);
  for (std::uint32_t b = 16; b < kKvValue; b += 8) {
    const std::uint64_t w = mix64(key ^ (tag * 31) ^ b);
    std::memcpy(out + b, &w, 8);
  }
}

// The put sequence number a value encodes for `key` (0: never written),
// or nullopt when the bytes are not a value anyone put to `key`.
std::optional<std::uint32_t> kv_decode(std::uint64_t key,
                                       std::span<const std::byte> v) {
  const auto zero = [](std::byte b) { return b == std::byte{0}; };
  if (v.empty() || std::all_of(v.begin(), v.end(), zero)) return 0u;
  if (v.size() != kKvValue) return std::nullopt;
  std::uint64_t got_key = 0, tag = 0;
  std::memcpy(&got_key, v.data(), 8);
  std::memcpy(&tag, v.data() + 8, 8);
  std::byte expect[kKvValue];
  kv_encode(key, static_cast<std::uint32_t>(tag >> 32),
            static_cast<std::uint32_t>(tag), expect);
  if (got_key != key || std::memcmp(expect, v.data(), kKvValue) != 0)
    return std::nullopt;
  return static_cast<std::uint32_t>(tag);
}

struct KvClient {
  apps::hashtable::FrontEnd* fe = nullptr;
  std::uint32_t id = 0, f = 0, w = 0;
  std::uint64_t ops = 0;
  std::uint64_t local_keys = 0;
  std::uint64_t seed = 0;
  std::map<std::uint64_t, std::uint32_t> last;  // key -> last put seq
  std::uint32_t seq = 0;
  std::uint64_t bad_gets = 0;
  std::uint64_t get_checksum = kFnvBasis;
  util::Samples latency_us;
  sim::Time end = 0;
  std::vector<ProbeStream::Access>* record = nullptr;
  apps::hashtable::Backend* backend = nullptr;
};

sim::Task kv_client_loop(sim::Engine& eng, KvClient& c,
                         sim::CountdownLatch& done) {
  wl::ZipfGenerator zipf(c.local_keys, 0.99, c.seed);
  sim::Rng coin(mix64(c.seed ^ 0xc0));
  std::byte value[kKvValue];
  for (std::uint64_t k = 0; k < c.ops; ++k) {
    const std::uint64_t key = kv_key(c.f, c.w, zipf.next());
    const bool put = coin.uniform(2) == 0;
    if (c.record != nullptr) {
      const hw::SocketId s = c.backend->socket_of(key);
      const std::uint64_t addr =
          c.backend->is_hot(key)
              ? c.backend->hot_region_addr(s) + c.backend->hot_entry_off(key)
              : c.backend->cold_addr(key);
      c.record->push_back({addr, kKvValue, put});
    }
    const sim::Time t0 = eng.now();
    if (put) {
      kv_encode(key, c.id, ++c.seq, value);
      co_await c.fe->put(key, std::span<const std::byte>(value, kKvValue));
      c.last[key] = c.seq;
    } else {
      const std::vector<std::byte> got = co_await c.fe->get(key);
      const auto it = c.last.find(key);
      const std::uint32_t want = it == c.last.end() ? 0 : it->second;
      const auto seen = kv_decode(key, got);
      if (!seen || *seen != want) ++c.bad_gets;
      c.get_checksum =
          fnv_word(c.get_checksum, (key << 32) ^ seen.value_or(~0u));
    }
    c.latency_us.add(sim::to_us(eng.now() - t0));
  }
  c.end = eng.now();
  done.count_down();
}

using FrontEnds = std::vector<std::unique_ptr<apps::hashtable::FrontEnd>>;

sim::Task kv_drain_all(FrontEnds& fes, sim::CountdownLatch& done) {
  co_await done.wait();
  for (auto& f : fes) co_await f->drain();
}

IterResult iterate_kv(const Options& o, SpanLog& log, bool record) {
  const std::uint64_t num_keys = o.smoke ? (1u << 12) : (1u << 14);
  const std::uint64_t ops = o.smoke ? 400 : 1500;
  IterResult r;
  std::unique_ptr<wl::Rig> rig;
  std::unique_ptr<apps::hashtable::DisaggHashTable> table;
  FrontEnds fes;
  {
    Scope setup(log, "setup");
    {
      Scope s(log, "cluster.build");
      rig = std::make_unique<wl::Rig>();
    }
    {
      Scope s(log, "apps.init");
      apps::hashtable::Config cfg;
      cfg.num_keys = num_keys;
      cfg.value_size = kKvValue;
      cfg.numa_aware = true;
      cfg.consolidate = true;
      cfg.entries_per_block = kKvBlockEntries;
      table = std::make_unique<apps::hashtable::DisaggHashTable>(*rig->ctx[0],
                                                                 cfg);
      for (std::uint32_t i = 0; i < kKvFrontEnds; ++i)
        fes.push_back(table->add_front_end(*rig->ctx[1 + i % 7], (i / 7) % 2));
    }
  }
  // Local ranks per client: each front-end owns 8 of every 48 keys.
  const std::uint64_t local_keys = num_keys / 48 * 8 / kKvPipeline;
  std::vector<KvClient> clients(kKvClients);
  for (std::uint32_t i = 0; i < kKvClients; ++i) {
    KvClient& c = clients[i];
    c.id = i;
    c.f = i / kKvPipeline;
    c.w = i % kKvPipeline;
    c.fe = fes[c.f].get();
    c.ops = ops;
    c.local_keys = local_keys;
    c.seed = mix64(o.seed * 0x1000 + i);
    c.backend = &table->backend();
    c.record = record ? &r.probe.accesses : nullptr;
  }
  {
    Scope s(log, "sim.run");
    sim::CountdownLatch done(rig->eng, kKvClients);
    for (KvClient& c : clients)
      rig->eng.spawn(kv_client_loop(rig->eng, c, done));
    rig->eng.spawn(kv_drain_all(fes, done));
    rig->eng.run();
    RDMASEM_CHECK_MSG(done.remaining() == 0, "kv clients did not finish");
  }
  {
    Scope s(log, "verify");
    // The backend image must hold every key's last put.
    apps::hashtable::Backend& be = table->backend();
    std::uint64_t bad_final = 0;
    std::uint64_t final_checksum = kFnvBasis;
    for (const KvClient& c : clients)
      for (const auto& [key, seq] : c.last) {
        const hw::SocketId sock = be.socket_of(key);
        verbs::MemoryRegion* mr = be.region(sock);
        std::span<const std::byte> v;
        if (be.is_hot(key)) {
          v = {mr->at(be.hot_region_addr(sock) + be.hot_entry_off(key)),
               kKvValue};
        } else {
          std::uint64_t version = 0;
          std::memcpy(&version, mr->at(be.cold_addr(key)), 8);
          // Slot layout: [seq u64 | key u64 | value].
          v = {mr->at(be.cold_slot_addr(key, version)) + 16, kKvValue};
        }
        const auto seen = kv_decode(key, v);
        if (!seen || *seen != seq) ++bad_final;
        final_checksum = fnv_word(final_checksum, (key << 32) ^ seq);
      }
    util::Samples lat;
    sim::Time end = 0;
    std::uint64_t bad_gets = 0;
    for (const KvClient& c : clients) {
      for (std::size_t i = 0; i < c.latency_us.count(); ++i)
        lat.add(c.latency_us.sample(i));
      end = std::max(end, c.end);
      bad_gets += c.bad_gets;
      final_checksum = fnv_word(final_checksum, c.get_checksum);
    }
    collect(rig->cluster, r.sim);
    r.rss_mb = current_rss_mb();
    r.sim.ops = static_cast<std::uint64_t>(kKvClients) * ops;
    r.sim.elapsed_ps = end;
    r.sim.mops = static_cast<double>(r.sim.ops) / sim::to_us(end);
    r.sim.p99_us = lat.percentile(99);
    r.sim.payload_bytes = r.sim.ops * kKvValue;
    r.sim.app_checksum = final_checksum;
    r.failed = r.sim.wr_failed + bad_gets + bad_final;
    r.prof = drain_profile(rig->eng);
  }
  {
    Scope s(log, "cluster.teardown");
    fes.clear();
    table.reset();
    rig.reset();
  }
  return r;
}

// --- probes ----------------------------------------------------------------

// Receives each probe's result so the timed model calls stay observable.
std::uint64_t g_probe_sink = 0;

// Host ns per model call. `replay` feeds the whole stream to a fresh model
// (so every pass repeats the same state sequence); passes repeat until at
// least 20 ms have passed.
template <typename Replay>
double probe_ns(const ProbeStream& ps, Replay replay) {
  if (ps.accesses.empty()) return 0;
  std::uint64_t calls = 0;
  std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  do {
    sink += replay(ps.accesses);
    calls += ps.accesses.size();
  } while (Clock::now() - t0 < std::chrono::milliseconds(20));
  const double ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  g_probe_sink += sink;
  return ns / static_cast<double>(calls);
}

double probe_mcache(const ProbeStream& ps) {
  const hw::ModelParams p = hw::ModelParams::connectx3_cluster();
  return probe_ns(ps, [&p](const std::vector<ProbeStream::Access>& acc) {
    hw::MetadataCache mc(p.rnic_sram_entries, p.rnic_weight_pte,
                         p.rnic_weight_mr, p.rnic_weight_qp);
    std::uint64_t hits = 0;
    for (const auto& a : acc)
      hits += mc.access(hw::MetadataCache::Kind::kPte,
                        a.addr / p.rnic_page_size);
    return hits;
  });
}

double probe_dram(const ProbeStream& ps) {
  const hw::ModelParams p = hw::ModelParams::connectx3_cluster();
  return probe_ns(ps, [&p](const std::vector<ProbeStream::Access>& acc) {
    hw::DramModel dram(p);
    std::uint64_t total = 0;
    for (const auto& a : acc)
      total += dram.access(a.addr, a.size,
                           a.write ? hw::DramModel::Op::kWrite
                                   : hw::DramModel::Op::kRead);
    return total;
  });
}

// --- host speed ------------------------------------------------------------
//
// The host is shared, and its speed swings by up to 2x in regimes that
// last longer than a run, so the raw host times of identical runs spread
// past any useful bound. Every timed iteration is therefore preceded by a
// fixed reference kernel of the simulator's own kind of work (a binary-heap
// event queue, and random reads and writes over a 4 MiB table), and each
// of its host times is scaled by kRefNominalS / (the kernel's time). They
// read as seconds on a host that runs the kernel in kRefNominalS. The
// kernel's code and buffers are the benchmark's own, so a change to src/
// moves the scaled times exactly as it moves the raw ones. What slows this
// host is contention for the memory system: a pure-ALU kernel tracked the
// workloads' slowdowns far worse than this one.
constexpr double kRefNominalS = 0.010;

class RefKernel {
 public:
  RefKernel() : table_(kTable) { heap_.reserve(kHeap + 1); }

  // Host seconds the fixed work takes now.
  double seconds() {
    const auto t0 = Clock::now();
    std::uint64_t x = 0x5eed, acc = 0;
    heap_.clear();
    for (std::uint32_t i = 0; i < kSteps; ++i) {
      x = mix64(x);
      heap_.push_back(x);
      std::push_heap(heap_.begin(), heap_.end());
      if (heap_.size() > kHeap) {
        std::pop_heap(heap_.begin(), heap_.end());
        acc += heap_.back();
        heap_.pop_back();
      }
      table_[x & (kTable - 1)] += i;
      acc += table_[(x >> 32) & (kTable - 1)];
    }
    sink_ += acc;
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

 private:
  static constexpr std::uint32_t kSteps = 100000;
  static constexpr std::size_t kHeap = 4096;
  static constexpr std::size_t kTable = 1u << 20;
  std::vector<std::uint64_t> heap_;
  std::vector<std::uint32_t> table_;
  std::uint64_t sink_ = 0;
};

// --- harness ---------------------------------------------------------------

struct WorkloadDef {
  const char* name;
  IterResult (*iterate)(const Options&, SpanLog&, bool);
  std::uint32_t shards;  // RDMASEM_SHARDS of the measured iterations
};

constexpr WorkloadDef kWorkloads[] = {
    {"micro_rand_bigmr", iterate_micro, 1},
    {"shuffle_sp16", iterate_shuffle, 1},
    {"shuffle_sp16_shards4", iterate_shuffle, 4},
    {"kv_zipf_mixed", iterate_kv, 1},
};

struct Sample {
  double ref = kRefNominalS;  // reference kernel's time before the iteration
  double setup = 0, run = 0, wall = 0, cpu = 0, teardown = 0;
  double build = 0, alloc = 0, reg = 0, connect = 0, app_init = 0;
};

void set_env(const char* k, const std::string& v) { setenv(k, v.c_str(), 1); }

struct Runner {
  Runner(const Options& opts, const WorkloadDef& def) : o(opts), w(def) {}

  const Options& o;
  const WorkloadDef& w;
  SpanLog log;
  std::uint32_t iteration = 0;
  std::uint64_t attempted = 0, failed = 0;
  std::optional<std::uint64_t> reference;  // serial, untraced digest
  std::uint64_t expected = 0;   // recorded digest for the default seed
  bool have_expected = false;
  bool invariants_ok = true;
  double peak_rss_mb = 0;
  // Built after the iterations that set peak_rss_mb, which its table
  // would otherwise inflate.
  std::optional<RefKernel> ref_kernel;

  // One iteration at `shards`, traced or not; checks its digest against
  // the process reference and the recorded default-seed digest.
  IterResult once(std::uint32_t shards, bool traced, Sample* out) {
    set_env("RDMASEM_SHARDS", std::to_string(shards));
    set_env("RDMASEM_PROF", traced ? "1" : "0");
    set_env("RDMASEM_TRACE", traced ? "1" : "0");
    set_env("RDMASEM_TRACE_MAX_SPANS", "65536");
    if (out != nullptr && ref_kernel) out->ref = ref_kernel->seconds();
    log.begin_iteration(iteration++);
    const double cpu0 = cpu_seconds();
    IterResult r;
    {
      Scope it(log, "iteration");
      r = w.iterate(o, log, traced);
    }
    const double cpu1 = cpu_seconds();
    peak_rss_mb = std::max(peak_rss_mb, r.rss_mb);
    const std::uint64_t d = r.sim.digest();
    if (!reference) reference = d;
    std::uint64_t bad = r.failed;
    if (d != *reference || (have_expected && d != expected)) {
      bad = r.sim.ops;  // a digest mismatch fails the whole iteration
      invariants_ok = false;
    }
    attempted += r.sim.ops;
    failed += std::min(bad, r.sim.ops);
    if (out != nullptr) {
      out->setup = log.seconds("setup");
      out->run = log.seconds("sim.run");
      out->wall = log.seconds("iteration");
      out->cpu = cpu1 - cpu0;
      out->teardown = log.seconds("cluster.teardown");
      out->build = log.seconds("cluster.build");
      out->alloc = log.seconds("verbs.buffer_alloc");
      out->reg = log.seconds("verbs.register");
      out->connect = log.seconds("verbs.connect");
      out->app_init = log.seconds("apps.init");
    }
    return r;
  }

  // Iterations until the budget is spent (at least min_iters).
  std::vector<Sample> measure(double budget_s, std::size_t min_iters,
                              bool traced, IterResult* last) {
    std::vector<Sample> samples;
    const auto t0 = Clock::now();
    while (samples.size() < min_iters ||
           std::chrono::duration<double>(Clock::now() - t0).count() <
               budget_s) {
      Sample s;
      IterResult r = once(w.shards, traced, &s);
      samples.push_back(s);
      if (last != nullptr) *last = std::move(r);
    }
    return samples;
  }
};

template <typename F>
double med(const std::vector<Sample>& v, F f) {
  std::vector<double> xs;
  for (const Sample& s : v) xs.push_back(f(s));
  return median(std::move(xs));
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Runner& run, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += (run.failed == 0 && run.invariants_ok) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(run.attempted);
  out += ", \"failed\": " + std::to_string(run.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: rdmasem_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--size full|smoke] "
               "[--expect-digest <hex>] [--spans-out <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's malloc thresholds where its dynamic adjustment converges
  // (mmap threshold at its 32 MiB ceiling, trim threshold twice that).
  // Left dynamic, whether an iteration reuses faulted-in heap pages or
  // gets fresh ones from the kernel depends on each process's heap
  // layout, and set-up time came out bimodal across identical runs.
  // Pinned, buffers under 32 MiB reuse warm heap pages and larger ones
  // (the 256 MB regions) are mapped fresh every iteration.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);

  Options o;
  if (argc % 2 == 0) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") o.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--size") o.smoke = v == "smoke";
    else if (k == "--expect-digest") o.expect_digest = v;
    else if (k == "--spans-out") o.spans_out = v;
    else return usage();
  }
  const WorkloadDef* w = nullptr;
  for (const WorkloadDef& d : kWorkloads)
    if (o.workload == d.name) w = &d;
  if (w == nullptr || o.seconds <= 0) return usage();

  Runner run(o, *w);
  if (!o.expect_digest.empty()) {
    run.expected = std::strtoull(o.expect_digest.c_str(), nullptr, 16);
    run.have_expected = true;
  }

  // Reference: one serial, untraced iteration (also the warm-up). Sharded
  // workloads then warm up at their own shard count; every later digest
  // must equal the reference, so shards4 == serial is checked each time.
  // Peak RSS is taken over these first iterations of a fresh process:
  // later ones reuse freed heap, and how well the reuse packs depends on
  // the allocation order, so their resident set is not repeatable.
  IterResult ref = run.once(1, false, nullptr);
  if (w->shards != 1) run.once(w->shards, false, nullptr);
  const double rss_mb = run.peak_rss_mb;
  run.ref_kernel.emplace();

  // Warm-up: the first iterations of a process fault in fresh heap pages
  // and run measurably slower than the rest.
  run.measure(0.1 * o.seconds, 2, false, nullptr);

  const double budget = o.trace ? o.seconds / 2 : o.seconds;
  IterResult last;
  const std::vector<Sample> plain = run.measure(budget, 5, false, &last);

  // Median of one host-time field over a set of iterations, scaled to the
  // reference host speed (see RefKernel), or raw.
  auto host = [](const std::vector<Sample>& v, double Sample::*field) {
    return med(v, [field](const Sample& x) {
      return x.*field * kRefNominalS / x.ref;
    });
  };
  auto raw = [](const std::vector<Sample>& v, double Sample::*field) {
    return med(v, [field](const Sample& x) { return x.*field; });
  };
  const double wall = host(plain, &Sample::wall);
  std::vector<Metric> metrics;
  if (!o.trace) {
    const double ops = static_cast<double>(last.sim.ops);
    metrics = {
        {"setup_s", host(plain, &Sample::setup), "s"},
        {"sim_ops_per_s", med(plain,
                               [ops](const Sample& x) {
                                 return ops / (x.run * kRefNominalS / x.ref);
                               }),
         "ops/s"},
        {"wall_s", wall, "s"},
        {"cpu_s", host(plain, &Sample::cpu), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"sim_mops", last.sim.mops, "sim_Mop/s"},
        {"sim_p99_us", last.sim.p99_us, "sim_us"},
    };
  } else {
    IterResult t;
    const std::vector<Sample> traced = run.measure(budget, 5, true, &t);
    const SimStats& s = t.sim;
    const ProfileSums& p = t.prof;
    auto share = [&p](std::uint64_t x) {
      return p.wall_ns ? static_cast<double>(x) / static_cast<double>(p.wall_ns)
                       : 0.0;
    };
    auto ratio = [](std::uint64_t a, std::uint64_t b) {
      return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    auto ns = [](std::uint64_t ps) { return static_cast<double>(ps) * 1e-3; };
    auto cnt = [](std::uint64_t v) { return static_cast<double>(v); };
    const double cas_useful =
        s.cas_attempts ? 1.0 - ratio(s.cas_failures, s.cas_attempts) : 1.0;
    // Host time per layer comes from the untraced half: the benchmark's
    // own spans are recorded there too, and the simulator's tracer and
    // engine profiler would inflate it. Counts, profile shares and probes
    // come from the traced half.
    const double run_s = host(plain, &Sample::run);
    metrics = {
        {"cluster.build_s", host(plain, &Sample::build), "s"},
        {"verbs.buffer_alloc_s", host(plain, &Sample::alloc), "s"},
        {"verbs.register_s", host(plain, &Sample::reg), "s"},
        {"verbs.connect_s", host(plain, &Sample::connect), "s"},
        {"apps.init_s", host(plain, &Sample::app_init), "s"},
        {"cluster.teardown_s", host(plain, &Sample::teardown), "s"},
        {"sim.run_s", run_s, "s"},
        {"sim.events", cnt(s.events), "count"},
        {"sim.host_ns_per_event", run_s * 1e9 / cnt(s.events), "ns"},
        {"sim.dispatch_share", share(p.dispatch_ns), "ratio"},
        {"sim.park_share", share(p.park_ns), "ratio"},
        {"sim.merge_share", share(p.merge_ns), "ratio"},
        {"sim.events_per_epoch", ratio(p.events, p.epochs), "events/epoch"},
        {"verbs.wr.posted", cnt(s.wr_posted), "count"},
        {"verbs.wr.completed", cnt(s.wr_completed), "count"},
        {"verbs.wr.failed", cnt(s.wr_failed), "count"},
        {"verbs.bytes", cnt(s.payload_bytes), "B"},
        {"verbs.payload.zero_copy", cnt(s.zero_copy), "count"},
        {"verbs.payload.pool_hits", cnt(s.pool_hits), "count"},
        {"verbs.payload.pool_misses", cnt(s.pool_misses), "count"},
        {"rnic.mcache.hits", cnt(s.mcache_hits), "count"},
        {"rnic.mcache.misses", cnt(s.mcache_misses), "count"},
        {"rnic.mcache.hit_rate",
         ratio(s.mcache_hits, s.mcache_hits + s.mcache_misses), "ratio"},
        {"rnic.mcache.host_ns_per_access", probe_mcache(t.probe), "ns"},
        {"rnic.eu.busy_ns", ns(s.eu_busy_ps), "sim_ns"},
        {"rnic.eu.wait_ns", ns(s.eu_wait_ps), "sim_ns"},
        {"rnic.atomic_unit.busy_ns", ns(s.atomic_busy_ps), "sim_ns"},
        {"rnic.atomic_unit.wait_ns", ns(s.atomic_wait_ps), "sim_ns"},
        {"rnic.dma.busy_ns", ns(s.dma_busy_ps), "sim_ns"},
        {"rnic.dma.wait_ns", ns(s.dma_wait_ps), "sim_ns"},
        {"hw.dram.row_hits", cnt(s.row_hits), "count"},
        {"hw.dram.row_misses", cnt(s.row_misses), "count"},
        {"hw.mem_channel.wait_ns", ns(s.mem_channel_wait_ps), "sim_ns"},
        {"hw.dram.host_ns_per_access", probe_dram(t.probe), "ns"},
        {"net.messages", cnt(s.net_messages), "count"},
        {"net.bytes", cnt(s.net_bytes), "B"},
        {"net.drops", cnt(s.net_drops), "count"},
        {"net.link.wait_ns", ns(s.link_wait_ps), "sim_ns"},
        {"remem.atomics.cas_attempts", cnt(s.cas_attempts), "count"},
        {"remem.atomics.cas_failures", cnt(s.cas_failures), "count"},
        {"remem.atomics.cas_useful_ratio", cas_useful, "ratio"},
        {"remem.consolidate.staged", cnt(s.staged), "count"},
        {"remem.consolidate.merges", cnt(s.merges), "count"},
        {"remem.consolidate.flushes", cnt(s.flushes), "count"},
        {"remem.consolidate.merge_ratio", ratio(s.merges, s.staged), "ratio"},
        {"apps.ops", cnt(s.ops), "count"},
        {"trace.overhead", host(traced, &Sample::wall) / wall, "ratio"},
        {"host.ref_kernel_s", raw(plain, &Sample::ref), "s"},
        {"host.raw_setup_s", raw(plain, &Sample::setup), "s"},
        {"host.raw_wall_s", raw(plain, &Sample::wall), "s"},
    };
    std::printf("%-34s %16s  %s\n", "per-layer metric", "value", "unit");
    for (const Metric& m : metrics)
      std::printf("%-34s %16.6g  %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    if (!o.spans_out.empty() && !run.log.write(o.spans_out))
      std::fprintf(stderr, "cannot write spans to %s\n", o.spans_out.c_str());
  }
  std::fprintf(stderr,
               "workload=%s seed=%" PRIu64 " size=%s digest=%016" PRIx64
               " iterations=%u sim_mops=%.6f\n",
               w->name, o.seed, o.smoke ? "smoke" : "full", ref.sim.digest(),
               run.iteration, ref.sim.mops);
  print_result(run, metrics);
  return 0;
}
