#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/fault.hpp"
#include "hw/params.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"

namespace rdmasem::net {

using MachineId = std::uint32_t;
using PortId = std::uint32_t;

// The wire costs of one message, priced by Fabric::transit. The caller
// (verbs::QueuePair::deliver) awaits them in order:
//
//   tx serialization  tx_link(src, sport).use(wire), on the sender's lane
//   propagation + one switch hop
//                     sim::hop(engine, dst_lane, hop): execution migrates
//                     to the receiver's lane
//   rx serialization  rx_link(dst, dport).use(wire), on the receiver's lane
//
// A loopback message (same machine+port) skips the wire and only pays the
// port turnaround: sim::delay(engine, hop) on the sender's lane.
struct Transit {
  bool loopback = false;
  sim::Duration wire = 0;
  sim::Duration hop = 0;
  std::uint32_t dst_lane = 0;
};

// Fabric — the InfiniBand network: every (machine, port) has a full-duplex
// link to one central switch (the paper's 18-port InfiniScale-IV).
//
// A message transit models tx serialization on the sender's link (FIFO
// resource at link_gbps), propagation + one switch hop (pure latency) and
// rx serialization on the receiver's link, so bandwidth contention on a
// host link emerges when several QPs mapped to the same port transmit
// simultaneously.
class Fabric {
 public:
  Fabric(sim::Engine& engine, const hw::ModelParams& params,
         std::uint32_t machines, std::uint32_t ports_per_machine);

  // Accounts one message of `payload_bytes` (plus header overhead) from
  // (src,sport) to (dst,dport) and prices its legs (see Transit). Call on
  // the sender's lane at send time: congestion and rerouting faults are
  // read from the fault state here, before the tx leg.
  Transit transit(MachineId src, PortId sport, MachineId dst, PortId dport,
                  std::size_t payload_bytes);

  // Loss decision for a message that just transited src -> dst. Consults
  // the per-link fault state first (loss bursts, dead links, partitions,
  // crashed endpoints), then the global `net_loss_prob` calibration knob.
  // Draws the calling lane's RNG only when the effective probability is
  // positive, so lossless runs stay trace-identical to the pre-fault
  // simulator. Must be called on the receiver's lane (qp.cpp does).
  bool dropped(MachineId src, PortId sport, MachineId dst, PortId dport);

  // Attaches the cluster's fault state; nullptr = lossless-lab behavior.
  void set_faults(const fault::FaultState* f) { faults_ = f; }
  const fault::FaultState* faults() const { return faults_; }

  sim::Resource& tx_link(MachineId m, PortId p) { return *tx_[index(m, p)]; }
  sim::Resource& rx_link(MachineId m, PortId p) { return *rx_[index(m, p)]; }

  std::uint64_t messages() const {
    return messages_;
  }
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t drops() const { return drops_; }
  // Drops attributed to the (m, p) -> switch uplink (the sender side of
  // the lost transit). Sums to drops() across all links.
  std::uint64_t link_drops(MachineId m, PortId p) const {
    return link_drops_[index(m, p)];
  }

 private:
  std::size_t index(MachineId m, PortId p) const {
    return static_cast<std::size_t>(m) * ports_ + p;
  }

  sim::Engine& engine_;
  const hw::ModelParams& p_;
  std::uint32_t ports_;
  std::vector<std::unique_ptr<sim::Resource>> tx_;
  std::vector<std::unique_ptr<sim::Resource>> rx_;
  const fault::FaultState* faults_ = nullptr;
  // Every lane's transits bump these; totals commute.
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t drops_ = 0;
  std::vector<std::uint64_t> link_drops_;  // indexed like tx_
};

}  // namespace rdmasem::net
