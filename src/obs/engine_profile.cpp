#include "obs/engine_profile.hpp"

#include <algorithm>

#include "obs/json.hpp"
#include "util/table.hpp"

namespace rdmasem::obs {

namespace {

// Host nanoseconds of dispatch per event (inline grants included).
double ns_per_event(const sim::ShardProfile& r) {
  if (r.events == 0) return 0.0;
  return static_cast<double>(r.dispatch_ns) / static_cast<double>(r.events);
}

}  // namespace

void EngineProfileAccum::absorb(const sim::EngineProfile& p) {
  if (!p.enabled || p.runs == 0) return;
  runs_ += p.runs;
  for (const sim::ShardProfile& s : p.shard) {
    row_.events += s.events;
    row_.inline_grants += s.inline_grants;
    row_.dispatch_ns += s.dispatch_ns;
    row_.max_queue_depth = std::max(row_.max_queue_depth, s.max_queue_depth);
  }
}

std::string EngineProfileAccum::render() const {
  if (empty()) return {};
  util::Table t({"events", "inline", "dispatch_ms", "ns/event",
                 "max_qdepth"});
  t.set_title("engine profile (" + std::to_string(runs_) + " runs)");
  t.add_row({std::to_string(row_.events), std::to_string(row_.inline_grants),
             util::fmt(static_cast<double>(row_.dispatch_ns) / 1e6, 2),
             util::fmt(ns_per_event(row_), 1),
             std::to_string(row_.max_queue_depth)});
  return t.render();
}

std::string EngineProfileAccum::json() const {
  std::string out = "{\"schema\": \"rdmasem-engine-profile-v2\"";
  out += ", \"runs\": " + std::to_string(runs_);
  out += ", \"events\": " + std::to_string(row_.events);
  out += ", \"inline_grants\": " + std::to_string(row_.inline_grants);
  out += ", \"dispatch_ns\": " + std::to_string(row_.dispatch_ns);
  out += ", \"max_queue_depth\": " + std::to_string(row_.max_queue_depth);
  out += ", \"ns_per_event\": " + json_num(ns_per_event(row_), 3);
  out += "}\n";
  return out;
}

}  // namespace rdmasem::obs
