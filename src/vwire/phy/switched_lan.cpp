#include "vwire/phy/switched_lan.hpp"

#include "vwire/util/logging.hpp"

namespace vwire::phy {

SwitchedLan::SwitchedLan(sim::Simulator& sim, LinkParams params, u64 seed)
    : Medium(sim, params, seed) {}

std::optional<TimePoint> SwitchedLan::enqueue_leg(TimePoint& busy_until,
                                                  std::size_t& queued,
                                                  Duration ser) {
  if (queued >= params_.queue_limit) return std::nullopt;
  TimePoint start = std::max(sim_.now(), busy_until);
  TimePoint done = start + ser;
  busy_until = done;
  ++queued;
  note_queue_depth(queued);
  return done;
}

PortId SwitchedLan::lookup(const net::MacAddress& dst) const {
  for (PortId p = 0; p < ports_.size(); ++p) {
    if (ports_[p].client->medium_mac() == dst) return p;
  }
  return kInvalidPort;
}

void SwitchedLan::transmit(PortId port, net::Packet pkt) {
  ++stats_.frames_offered;
  if (!port_up(port)) {
    note_drop(port, pkt, obs::DropCause::kPortDown);
    return;
  }
  if (tx_fault_drop(port, pkt)) return;
  Port& in = ports_[port];
  auto done = enqueue_leg(in.busy_until, in.queued,
                          serialization_time_on(port, pkt.size()));
  if (!done) {
    note_drop(port, pkt, obs::DropCause::kQueue);
    return;
  }
  // Frame fully received by the switch after serialization + propagation,
  // plus any scheduled tx-side latency/jitter on the host's link.
  TimePoint at_switch = *done + params_.propagation + tx_fault_delay(port, pkt);
  sim_.at(at_switch, [this, port, pkt = std::move(pkt)]() mutable {
    --ports_[port].queued;
    switch_forward(port, std::move(pkt));
  });
}

void SwitchedLan::switch_forward(PortId ingress, net::Packet pkt) {
  auto eth = pkt.ethernet();
  if (!eth) return;

  if (egress_.size() < ports_.size()) egress_.resize(ports_.size());

  auto send_out = [this, ingress, &pkt](PortId out) {
    if (out == ingress) return;
    Leg& leg = egress_[out];
    // The switch→node leg runs at the destination link's effective rate
    // (a throttled port bottlenecks both directions of its link).
    auto done = enqueue_leg(leg.busy_until, leg.queued,
                            serialization_time_on(out, pkt.size()));
    if (!done) {
      note_drop(out, pkt, obs::DropCause::kQueue);
      return;
    }
    TimePoint arrive = *done + params_.propagation;
    bool corrupted = corrupts_frame(pkt.size());
    sim_.at(arrive,
            [this, out, corrupted, p = pkt.wire_copy()]() mutable {
              --egress_[out].queued;
              if (corrupted) {
                note_drop(out, p, obs::DropCause::kBitError);
                return;
              }
              deliver_to_port(out, std::move(p));
            });
  };

  if (eth->dst.is_broadcast()) {
    for (PortId p = 0; p < ports_.size(); ++p) send_out(p);
    return;
  }
  PortId out = lookup(eth->dst);
  if (out == kInvalidPort) {
    // Unknown unicast floods, like a real learning switch pre-learning.
    for (PortId p = 0; p < ports_.size(); ++p) send_out(p);
    return;
  }
  send_out(out);
}

}  // namespace vwire::phy
