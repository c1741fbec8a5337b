#pragma once

#include <cstdint>
#include <string>

#include "sim/engine.hpp"

namespace rdmasem::obs {

// EngineProfileAccum — the Plane-2 (host time) aggregate of
// sim::EngineProfile snapshots across a bench run: every absorbed
// snapshot adds into one row (counts and times sum, the queue high-water
// mark takes the max). Wall time is not reported separately: the
// dispatch loop is the whole run, so it equals dispatch time.
class EngineProfileAccum {
 public:
  // Folds one drained snapshot. Disabled snapshots (RDMASEM_PROF unset)
  // are skipped, so the accumulator stays empty and the bench report
  // omits the section.
  void absorb(const sim::EngineProfile& p);

  bool empty() const { return runs_ == 0; }

  // Human table; empty string when nothing was absorbed.
  std::string render() const;
  // The "engine_profile" bench-report section (schema
  // "rdmasem-engine-profile-v2", scripts/check_bench_json.py).
  std::string json() const;

 private:
  std::uint64_t runs_ = 0;
  sim::ShardProfile row_;
};

}  // namespace rdmasem::obs
