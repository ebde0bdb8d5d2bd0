// Packet-fault application — the injection half of the FIE (Table II).
//
// Fault actions are level-triggered: while the owning condition holds, every
// packet matching the action's (packet type, source, destination, direction)
// is subjected to the fault.  This matches the paper's Fig 5 usage, where
// `((SYNACK > 0) && (SYNACK < 2)) >> DROP ...` drops exactly the first
// SYNACK: the counter moving to 2 turns the condition off again.
#include "vwire/core/engine/engine.hpp"
#include "vwire/host/node.hpp"
#include "vwire/util/logging.hpp"

namespace vwire::core {

EngineLayer::Fate EngineLayer::apply_faults(net::Packet& pkt,
                                            net::Direction dir,
                                            FilterId filter, NodeId src,
                                            NodeId dst) {
  if (filter == kInvalidId) return Fate::kRelease;
  for (ActionId a : local_fault_actions_) {
    const ActionEntry& e = tables_.actions.entries[a];
    if (e.dir != dir || e.filter != filter) continue;
    if (e.src_node != src || e.dst_node != dst) continue;
    const CondId cond = e.cond;
    bool active = cond != kInvalidId && rules_.condition_state(cond);
    if (e.kind == ActionKind::kReorder && !active) {
      // A reorder window that started collecting completes even if its
      // trigger condition has meanwhile gone false (e.g. an equality on
      // the very counter the captured packets increment).
      auto it = reorder_buf_.find(a);
      active = it != reorder_buf_.end() && !it->second.empty();
    }
    if (!active) continue;
    // RATE/PROB modifiers thin the fault stream.  The common unmodified
    // case short-circuits here (one compare, no counter, no draw) so the
    // steady-state packet path stays within its overhead budget.  A
    // suppressed match falls through to later actions in script order.
    if ((e.rate_n > 1 || e.prob < 1.0) && !modifier_admits(e, a)) {
      if (obs::FlightRecorder* f =
              node_ != nullptr ? node_->flight_recorder() : nullptr) {
        // The near-miss is causal evidence too: this packet matched the
        // rule but the RATE/PROB lottery let it live.
        f->record(sim_.now().ns, pkt.span(), pkt.parent_span(),
                  obs::SpanEventKind::kFaultSkipped, static_cast<u16>(cond),
                  static_cast<u8>(e.kind));
      }
      continue;
    }
    Fate fate = apply_one(e, a, pkt, dir);
    if (fate != Fate::kRelease) return fate;
    // MODIFY/DUP release the packet but stop further fault matching: one
    // fault per packet, in script order.
    return Fate::kRelease;
  }
  return Fate::kRelease;
}

bool EngineLayer::modifier_admits(const ActionEntry& e, ActionId id) {
  if (e.rate_n > 1) {
    // RATE(N) fires on exactly every Nth matching packet (the Nth, 2Nth,
    // ...), so a soak's fault count is deterministic, not statistical.
    if (++mod_count_[id] % e.rate_n != 0) return false;
  }
  if (e.prob < 1.0 && !mod_rng_[id].chance(e.prob)) return false;
  return true;
}

EngineLayer::Fate EngineLayer::apply_one(const ActionEntry& e, ActionId id,
                                         net::Packet& pkt,
                                         net::Direction dir) {
  ++stats_.actions_executed;
  ++actions_this_packet_;
  // Provenance: snapshot (counter/term state, matched filter, packet)
  // before the fault disposes of the packet; the cases below fill the
  // outcome fields (notably DELAY's applied-vs-requested quantization).
  // Records are filled in place in the claimed ring slot — this path runs
  // up to 25 times per matched packet in the Fig 7/8 configuration.
  const bool prov = provenance_.enabled();
  const u64 uid = pkt.uid();  // kReorder moves pkt before recording
  if (obs::FlightRecorder* f =
          node_ != nullptr ? node_->flight_recorder() : nullptr) {
    // Span annotation: which rule (condition id) fired which fault kind on
    // this frame.  Recorded before the cases below move/consume the packet.
    f->record(sim_.now().ns, pkt.span(), pkt.parent_span(),
              obs::SpanEventKind::kFault,
              static_cast<u16>(e.cond), static_cast<u8>(e.kind),
              e.kind == ActionKind::kDelay ? e.delay.ns : 0);
  }
  auto record = [&]() -> obs::FiringRecord& {
    obs::FiringRecord& r = provenance_.claim();
    fill_record(r, e.cond, id, /*depth=*/0);
    r.filter = e.filter;
    r.packet_uid = uid;
    return r;
  };
  switch (e.kind) {
    case ActionKind::kDrop:
      ++stats_.drops;
      if (prov) record();
      VWIRE_DEBUG() << "DROP uid=" << pkt.uid() << " at "
                    << sim_.now().seconds() << "s";
      return Fate::kConsumed;

    case ActionKind::kDelay: {
      ++stats_.delays;
      // Jiffy quantization, as in the paper's Linux 2.4 implementation.
      Duration d = sim::quantize_up(e.delay, params_.delay_quantum);
      if (prov) {
        obs::FiringRecord& r = record();
        r.value = d.ns;         // applied (quantized)
        r.value2 = e.delay.ns;  // requested by the script
      }
      sim_.after(d, [this, pkt = std::move(pkt), dir]() mutable {
        release_now(std::move(pkt), dir);
      });
      return Fate::kDiverted;
    }

    case ActionKind::kDup: {
      ++stats_.dups;
      if (prov) record();
      // The twin follows the original immediately (fresh uid).
      sim_.after({0}, [this, twin = pkt.clone(), dir]() mutable {
        release_now(std::move(twin), dir);
      });
      return Fate::kRelease;
    }

    case ActionKind::kModify: {
      ++stats_.modifies;
      if (prov) {
        record().value = static_cast<i64>(e.modify_bytes.size());  // 0=random
      }
      Bytes& b = pkt.mutable_bytes();
      if (!e.modify_bytes.empty()) {
        // Explicit rewrite; the checksum is deliberately left to the script
        // author ("The checksum in such a case must be set correctly by the
        // user", paper §5.2).
        for (const ModifyByte& m : e.modify_bytes) {
          if (m.offset < b.size()) {
            b[m.offset] =
                static_cast<u8>((b[m.offset] & ~m.mask) | (m.value & m.mask));
          }
        }
      } else if (b.size() > net::EthernetHeader::kSize) {
        // Default: random perturbation of 1..4 payload bytes.
        int flips = static_cast<int>(rng_.range(1, 4));
        for (int i = 0; i < flips; ++i) {
          std::size_t off = net::EthernetHeader::kSize +
                            rng_.below(b.size() - net::EthernetHeader::kSize);
          u8 x = static_cast<u8>(rng_.range(1, 255));
          b[off] ^= x;
        }
      }
      return Fate::kRelease;
    }

    case ActionKind::kReorder: {
      // Served this edge's window already?  (An active rule has risen, so
      // its rise count is never the map's default 0.)
      if (reorder_served_[id] == rules_.rises(e.cond)) return Fate::kRelease;
      auto& buf = reorder_buf_[id];
      buf.push_back(std::move(pkt));
      ++stats_.reorders_held;
      if (prov) {
        obs::FiringRecord& r = record();
        r.value = static_cast<i64>(buf.size());  // window fill after this
        r.value2 = static_cast<i64>(e.reorder_count);
      }
      if (buf.size() < e.reorder_count) return Fate::kDiverted;
      // Window full: release in the scripted permutation "in burst when
      // the bottom half is scheduled next" — here, one event later.
      std::vector<net::Packet> window = std::move(buf);
      reorder_buf_.erase(id);
      reorder_served_[id] = rules_.rises(e.cond);
      sim_.after({0}, [this, window = std::move(window),
                       order = e.reorder_order, dir]() mutable {
        for (u16 idx : order) {
          ++stats_.reorders_released;
          release_now(std::move(window[idx - 1]), dir);
        }
      });
      return Fate::kDiverted;
    }

    default:
      return Fate::kRelease;
  }
}

}  // namespace vwire::core
