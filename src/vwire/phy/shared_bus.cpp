#include "vwire/phy/shared_bus.hpp"

namespace vwire::phy {

SharedBus::SharedBus(sim::Simulator& sim, LinkParams params, u64 seed)
    : Medium(sim, params, seed), backoff_rng_(seed ^ 0xb5bab5ba) {
  SharedBus::reseed(seed);
}

void SharedBus::reseed(u64 seed) {
  Medium::reseed(seed);
  backoff_rng_ = Rng::derive(seed, "phy.backoff");
}

void SharedBus::transmit(PortId port, net::Packet pkt) {
  ++stats_.frames_offered;
  if (!port_up(port)) {
    note_drop(port, pkt, obs::DropCause::kPortDown);
    return;
  }
  if (tx_fault_drop(port, pkt)) return;
  if (channel_queued_ >= params_.queue_limit) {
    note_drop(port, pkt, obs::DropCause::kQueue);
    return;
  }

  TimePoint start = sim_.now();
  if (channel_busy_until_ > start) {
    // Channel sensed busy: defer, with a randomized backoff after it frees.
    ++stats_.collisions;
    start = channel_busy_until_ + kSlot * backoff_rng_.range(0, 3);
  }
  TimePoint done = start + serialization_time_on(port, pkt.size());
  channel_busy_until_ = done;
  ++channel_queued_;
  note_queue_depth(channel_queued_);

  TimePoint arrive = done + params_.propagation + tx_fault_delay(port, pkt);
  sim_.at(arrive, [this, port, pkt = std::move(pkt)]() mutable {
    --channel_queued_;
    complete(port, std::move(pkt));
  });
}

void SharedBus::complete(PortId src_port, net::Packet pkt) {
  auto eth = pkt.ethernet();
  if (!eth) return;
  // On a bus every NIC physically sees the frame; delivery is filtered by
  // destination MAC (plus broadcast).  Each receiver runs its own
  // bit-error lottery — bus taps see independent noise.
  for (PortId p = 0; p < ports_.size(); ++p) {
    if (p == src_port) continue;
    bool mine = eth->dst.is_broadcast() ||
                ports_[p].client->medium_mac() == eth->dst;
    if (!mine) continue;
    if (corrupts_frame(pkt.size())) {
      note_drop(p, pkt, obs::DropCause::kBitError);
      continue;
    }
    deliver_to_port(p, pkt.wire_copy());
  }
}

}  // namespace vwire::phy
