#include "vwire/phy/medium.hpp"

#include <stdexcept>

#include "vwire/util/assert.hpp"
#include "vwire/util/logging.hpp"

namespace vwire::phy {

Medium::Medium(sim::Simulator& sim, LinkParams params, u64 seed)
    : sim_(sim),
      params_(params),
      bit_errors_(params.bit_error_rate, seed),
      fault_rng_(seed) {
  Medium::reseed(seed);
}

void Medium::reseed(u64 seed) {
  // One master seed fans out to independent *named* streams, so the
  // bit-error lottery and the fault lotteries never share draws and a
  // campaign replay cannot drift if one stream's draw order changes.
  seed_ = seed;
  bit_errors_.reseed(derive_seed(seed, "phy.bit_error"));
  fault_rng_ = Rng::derive(seed, "phy.fault");
}

PortId Medium::attach(MediumClient* client) {
  VWIRE_ASSERT(client != nullptr, "attach null client");
  ports_.push_back(Port{client, true, {}, 0, {}, nullptr});
  return static_cast<PortId>(ports_.size() - 1);
}

void Medium::set_port_up(PortId port, bool up) {
  VWIRE_ASSERT(port < ports_.size(), "bad port id");
  ports_[port].up = up;
}

bool Medium::port_up(PortId port) const {
  VWIRE_ASSERT(port < ports_.size(), "bad port id");
  return ports_[port].up;
}

namespace {

void check_port_arg(PortId port, std::size_t count) {
  if (port >= count) {
    throw std::invalid_argument("phy::Medium: port " + std::to_string(port) +
                                " out of range (have " +
                                std::to_string(count) + " ports)");
  }
}

}  // namespace

void Medium::set_link_fault(PortId port, const LinkFaultState& fault) {
  check_port_arg(port, ports_.size());
  ports_[port].fault = fault;
}

const LinkFaultState& Medium::link_fault(PortId port) const {
  check_port_arg(port, ports_.size());
  return ports_[port].fault;
}

void Medium::clear_link_fault(PortId port) {
  check_port_arg(port, ports_.size());
  ports_[port].fault = LinkFaultState{};
}

void Medium::set_port_flight(PortId port, obs::FlightRecorder* flight) {
  check_port_arg(port, ports_.size());
  ports_[port].flight = flight;
}

bool Medium::link_cut_tx(PortId port) const {
  VWIRE_ASSERT(port < ports_.size(), "bad port id");
  const LinkFaultState& f = ports_[port].fault;
  return f.tx.cut || f.flap.down_at(sim_.now());
}

bool Medium::link_cut_rx(PortId port) const {
  VWIRE_ASSERT(port < ports_.size(), "bad port id");
  const LinkFaultState& f = ports_[port].fault;
  return f.rx.cut || f.flap.down_at(sim_.now());
}

Duration Medium::serialization_time(std::size_t bytes) const {
  std::size_t wire_bytes = std::max(bytes, params_.min_frame_bytes);
  double secs = static_cast<double>(wire_bytes) * 8.0 / params_.bandwidth_bps;
  return seconds_f(secs);
}

Duration Medium::serialization_time_on(PortId port, std::size_t bytes) const {
  VWIRE_ASSERT(port < ports_.size(), "bad port id");
  double bps = params_.bandwidth_bps;
  double throttle = ports_[port].fault.bandwidth_bps;
  if (throttle > 0 && throttle < bps) bps = throttle;
  std::size_t wire_bytes = std::max(bytes, params_.min_frame_bytes);
  return seconds_f(static_cast<double>(wire_bytes) * 8.0 / bps);
}

bool Medium::corrupts_frame(std::size_t bytes) {
  return bit_errors_.corrupt(bytes);
}

obs::DropCause Medium::dir_fault_check(const LinkFaultDir& dir,
                                       bool flap_down) {
  if (dir.cut) return obs::DropCause::kCut;
  if (flap_down) return obs::DropCause::kFlap;
  if (dir.loss_rate > 0 && fault_rng_.chance(dir.loss_rate)) {
    return obs::DropCause::kLoss;
  }
  return obs::DropCause::kNone;
}

void Medium::note_drop(PortId port, const net::Packet& pkt,
                       obs::DropCause cause) {
  switch (cause) {
    case obs::DropCause::kNone:     return;
    case obs::DropCause::kPortDown: ++stats_.frames_dropped_down; break;
    case obs::DropCause::kQueue:    ++stats_.frames_dropped_queue; break;
    case obs::DropCause::kBitError: ++stats_.frames_dropped_error; break;
    case obs::DropCause::kCut:      ++stats_.frames_dropped_cut; break;
    case obs::DropCause::kFlap:     ++stats_.frames_dropped_flap; break;
    case obs::DropCause::kLoss:     ++stats_.frames_dropped_loss; break;
  }
  if (obs::FlightRecorder* f = ports_[port].flight) {
    f->record(sim_.now().ns, pkt.span(), pkt.parent_span(),
              obs::SpanEventKind::kLinkDrop, 0xffff,
              static_cast<u8>(cause));
  }
}

Duration Medium::dir_fault_delay(const LinkFaultDir& dir) {
  Duration d = dir.extra_latency;
  if (dir.jitter.ns > 0) {
    d += Duration{fault_rng_.range(0, dir.jitter.ns)};
  }
  if (d.ns > 0) ++stats_.frames_delayed_fault;
  return d;
}

bool Medium::tx_fault_drop(PortId port, const net::Packet& pkt) {
  const LinkFaultState& f = ports_[port].fault;
  const obs::DropCause cause =
      dir_fault_check(f.tx, f.flap.down_at(sim_.now()));
  if (cause == obs::DropCause::kNone) return false;
  note_drop(port, pkt, cause);
  return true;
}

Duration Medium::tx_fault_delay(PortId port, const net::Packet& pkt) {
  const Duration d = dir_fault_delay(ports_[port].fault.tx);
  if (d.ns > 0) {
    if (obs::FlightRecorder* f = ports_[port].flight) {
      f->record(sim_.now().ns, pkt.span(), pkt.parent_span(),
                obs::SpanEventKind::kLinkDelay, 0xffff, 0, d.ns);
    }
  }
  return d;
}

void Medium::deliver_to_port(PortId port, net::Packet pkt) {
  VWIRE_ASSERT(port < ports_.size(), "bad port id");
  Port& p = ports_[port];
  if (!p.up) {
    note_drop(port, pkt, obs::DropCause::kPortDown);
    return;
  }
  const obs::DropCause cause =
      dir_fault_check(p.fault.rx, p.fault.flap.down_at(sim_.now()));
  if (cause != obs::DropCause::kNone) {
    note_drop(port, pkt, cause);
    return;
  }
  Duration extra = dir_fault_delay(p.fault.rx);
  if (extra.ns > 0) {
    if (obs::FlightRecorder* f = p.flight) {
      f->record(sim_.now().ns, pkt.span(), pkt.parent_span(),
                obs::SpanEventKind::kLinkDelay, 0xffff, 0, extra.ns);
    }
    sim_.at(sim_.now() + extra, [this, port, pkt = std::move(pkt)]() mutable {
      finish_delivery(port, std::move(pkt));
    });
    return;
  }
  finish_delivery(port, std::move(pkt));
}

void Medium::finish_delivery(PortId port, net::Packet pkt) {
  Port& p = ports_[port];
  if (!p.up) {
    // The port went down while the frame sat in the jitter delay.
    note_drop(port, pkt, obs::DropCause::kPortDown);
    return;
  }
  ++stats_.frames_delivered;
  stats_.bytes_delivered += pkt.size();
  p.client->medium_deliver(std::move(pkt));
}

}  // namespace vwire::phy
