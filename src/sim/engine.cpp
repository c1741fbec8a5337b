#include "sim/engine.hpp"

#include <algorithm>
#include <chrono>

#include "util/env.hpp"

namespace rdmasem::sim {

namespace {

// Seed for lane l's private RNG stream: a splitmix64 step keyed on the
// lane, so streams are decorrelated but a pure function of (seed, lane).
std::uint64_t mix_seed(std::uint64_t s, std::uint32_t lane) {
  std::uint64_t z = s + 0x9e3779b97f4a7c15ULL * (lane + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t kDefaultSeed = 0x9e3779b97f4a7c15ULL;

using ProfClock = std::chrono::steady_clock;

std::uint64_t ns_since(ProfClock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(ProfClock::now() -
                                                           t0)
          .count());
}

}  // namespace

std::uint32_t current_lane() noexcept { return detail::t_exec.lane; }

Engine::Engine() : base_seed_(kDefaultSeed) {
  lane_seq_.assign(1, 0);
  lane_rng_.emplace_back(base_seed_);
  lane_group_.assign(1, 0);
  group_lat_.assign(1, 0);
  prof_ = util::env_bool("RDMASEM_PROF", false);
}

Engine::~Engine() {
  // Unblocked destruction order: drop the event queue and the pending
  // callbacks first (resumptions reference frames; a free slot holds an
  // empty callable, so every capture is released exactly once), then
  // destroy surviving frames. Destroying a frame unlinks it, whichever
  // frame's teardown does it, so the loop always reads a live head:
  // newest first, so a child spawned by a suspended parent goes before it.
  queue_.clear();
  fns_.clear();
  free_fns_.clear();
  while (!detached_.empty()) detached_.front().destroy();
}

void Engine::configure_lanes(std::uint32_t lanes, LaneTopology topo) {
  RDMASEM_CHECK_MSG(lanes >= 1 && lanes <= kMaxLanes,
                    "configure_lanes: lane count out of range");
  RDMASEM_CHECK_MSG(queue_.empty(),
                    "configure_lanes with events already scheduled");
  lanes_ = lanes;
  lane_seq_.assign(lanes, 0);
  lane_rng_.clear();
  lane_rng_.reserve(lanes);
  for (std::uint32_t l = 0; l < lanes; ++l)
    lane_rng_.emplace_back(l == 0 ? base_seed_ : mix_seed(base_seed_, l));
  // Empty = uniform: one group whose latency is whatever set_lookahead()
  // chose (callable before or after this).
  if (topo.lane_group.empty()) {
    const Duration uniform = ngroups_ == 1 ? group_lat_[0] : 0;
    ngroups_ = 1;
    lane_group_.assign(lanes, 0);
    group_lat_.assign(1, uniform);
    return;
  }
  RDMASEM_CHECK_MSG(topo.lane_group.size() == lanes,
                    "configure_lanes: lane_group size mismatch");
  RDMASEM_CHECK_MSG(topo.group_latency.size() ==
                        static_cast<std::size_t>(topo.groups) * topo.groups,
                    "configure_lanes: group_latency size mismatch");
  ngroups_ = topo.groups;
  lane_group_ = std::move(topo.lane_group);
  group_lat_ = std::move(topo.group_latency);
  for (std::uint32_t g : lane_group_)
    RDMASEM_CHECK_MSG(g < ngroups_, "configure_lanes: group out of range");
}

void Engine::set_lookahead(Duration d) {
  ngroups_ = 1;
  lane_group_.assign(lanes_, 0);
  group_lat_.assign(1, d);
}

void Engine::seed(std::uint64_t s) {
  base_seed_ = s;
  for (std::uint32_t l = 0; l < lane_rng_.size(); ++l)
    lane_rng_[l].reseed(l == 0 ? s : mix_seed(s, l));
}

void Engine::spawn_on(std::uint32_t lane, Task&& task) {
  RDMASEM_CHECK_MSG(lane < lanes_, "spawn_on: lane out of range");
  auto h = task.release_detached(&detached_);
  resume_on(lane, now_, h);
}

bool Engine::try_inline_advance(Time at) {
  const detail::ExecContext& x = detail::t_exec;
  // `at >= inline_until` also covers the disabled states: outside a
  // dispatch horizon (run_events) inline_until is 0.
  if (x.eng != this || at >= x.inline_until) return false;
  // The wakeup event's would-be key: this lane's NEXT seq value (not
  // consumed — skipping it preserves relative per-lane order, which is
  // all the (at, key) comparison ever uses). Grant inline only if the
  // wakeup would be dispatched before everything queued.
  const std::uint64_t key =
      (static_cast<std::uint64_t>(x.lane) << kLaneShift) | lane_seq_[x.lane];
  if (queue_.has_before(at, key)) return false;
  // Equivalent to pop + dispatch of the wakeup: the clock lands on `at`
  // and every semantic resumption counts exactly once, granted inline or
  // dispatched.
  now_ = at;
  ++processed_;
  ++prof_row_.inline_grants;
  return true;
}

void Engine::run_loop(Time end, Time inline_until) {
  // Hot loop: the exec context is written once and only the lane field
  // updates per event (a full save/restore per event costs two extra
  // thread-local writes — measurable in the selfbench).
  ProfClock::time_point w0;
  if (prof_) w0 = ProfClock::now();
  const detail::ExecContext saved = detail::t_exec;
  detail::t_exec = {this, 0, inline_until};
  while (!queue_.empty() &&
         (end == kNoDeadline || queue_.next_time() < end)) {
    dispatch(queue_.pop());
  }
  detail::t_exec = saved;
  if (prof_) {
    // The whole run is one "epoch": dispatch == wall.
    const std::uint64_t ns = ns_since(w0);
    prof_row_.dispatch_ns += ns;
    prof_row_.wall_ns += ns;
    ++prof_row_.epochs;
    ++prof_runs_;
  }
}

Time Engine::run() {
  run_loop(kNoDeadline, kNoDeadline);
  return now_;
}

bool Engine::run_until(Time deadline) {
  // Horizon deadline + 1: events AT the deadline still run (saturating;
  // a deadline of kNoDeadline behaves like run()).
  const Time end = deadline == kNoDeadline ? kNoDeadline : deadline + 1;
  run_loop(end, end);
  if (queue_.empty()) return false;
  now_ = std::max(now_, deadline);
  return true;
}

std::uint64_t Engine::run_events(std::uint64_t max_events) {
  std::uint64_t n = 0;
  const detail::ExecContext saved = detail::t_exec;
  detail::t_exec = {this, 0, 0};
  for (; n < max_events && !queue_.empty(); ++n) {
    dispatch(queue_.pop());
  }
  detail::t_exec = saved;
  return n;
}

EngineProfile Engine::drain_profile() {
  EngineProfile p;
  p.enabled = prof_;
  p.runs = prof_runs_;
  ShardProfile row = prof_row_;
  row.events = processed_ - prof_events_base_;
  row.max_queue_depth = queue_.max_size();
  p.shard.push_back(row);
  // Start a new profiling window.
  prof_row_ = ShardProfile{};
  prof_events_base_ = processed_;
  queue_.reset_max_size();
  prof_runs_ = 0;
  return p;
}

}  // namespace rdmasem::sim
