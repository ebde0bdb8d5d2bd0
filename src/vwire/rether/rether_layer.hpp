// Rether — the software token-passing real-time Ethernet protocol (paper
// §1, §6.2; Venkatramani & Chiueh, SIGCOMM '95).
//
// Implemented, like the original and like the VirtualWire engine itself, as
// a layer between the device driver and the IP stack.  In best-effort mode
// the token visits ring members round-robin; a member transmits queued
// frames only while holding the token.
//
// Fault handling reproduced from the paper's test scenario:
//  * every token pass is acknowledged (tr_token_ack);
//  * an unacknowledged token is retransmitted until the configured
//    transmission budget (3 sends in the Fig 6 script) is exhausted, after
//    which the successor is evicted and the ring reconstructed;
//  * each token carries the versioned membership, so survivors adopt the
//    reconstructed ring on the next pass;
//  * a silence watchdog regenerates a lost token at the lowest-MAC member,
//    covering the "no token" half of the single-token invariant; stale
//    (lower-sequence) tokens are discarded, covering the "multiple tokens"
//    half.
#pragma once

#include <deque>
#include <functional>

#include "vwire/host/node.hpp"
#include "vwire/rether/rether_frame.hpp"
#include "vwire/rether/ring.hpp"
#include "vwire/sim/timer.hpp"

namespace vwire::rether {

struct RetherParams {
  Duration token_ack_timeout{millis(10)};
  /// Total transmissions of one token to one successor before eviction.
  /// The Fig 6 analysis script checks for exactly 3.
  u32 token_max_transmissions{3};
  std::size_t hold_quantum_frames{10};  ///< best-effort frames per hold
  Duration idle_hold{micros(200)};      ///< pass delay when queue is empty
  Duration regen_timeout{millis(500)};  ///< silence before regeneration
  std::size_t queue_limit{512};
  bool watchdog{true};  ///< enable the token-regeneration watchdog

  // --- real-time mode (Rether's bandwidth guarantee) ---
  /// Target token-cycle duration; reservations are admitted against it and
  /// best-effort transmission is shed when the cycle runs behind.
  Duration target_cycle{millis(10)};
  /// Admission-control budget per reserved frame (wire time of a
  /// full-sized frame plus handling).
  Duration rt_frame_time{micros(130)};
  /// Admission-control budget per ring member per cycle (token pass,
  /// ack, idle hold).
  Duration per_hop_overhead{micros(250)};
};

/// Outcome of request_reservation(), resolved the next time this node
/// holds the token (admission needs the ring-wide view the token carries).
enum class ReservationState : u8 { kNone, kPending, kAdmitted, kRejected };

struct RetherStats {
  u64 tokens_received{0};
  u64 tokens_passed{0};     ///< distinct successful first transmissions
  u64 token_sends{0};       ///< includes retransmissions
  u64 token_retransmits{0};
  u64 acks_sent{0};
  u64 acks_received{0};
  u64 nodes_evicted{0};
  u64 tokens_regenerated{0};
  u64 stale_tokens_dropped{0};
  u64 data_sent{0};
  u64 data_queued{0};
  u64 data_dropped_queue{0};
  u64 joins_admitted{0};
  // Real-time mode.
  u64 rt_sent{0};          ///< frames sent under a reservation
  u64 be_shed_holds{0};    ///< holds where best-effort was suppressed
  u64 reservations_admitted{0};
  u64 reservations_rejected{0};
};

class RetherLayer final : public host::Layer {
 public:
  RetherLayer(sim::Simulator& sim, RetherParams params,
              std::vector<net::MacAddress> initial_ring);

  std::string_view name() const override { return "rether"; }

  /// Regulated data path: frames queue until this node holds the token.
  void send_down(net::Packet pkt) override;
  /// Consumes ethertype-0x9900 frames; everything else passes up.
  void receive_up(net::Packet pkt) override;

  /// Starts the protocol.  `with_token` on exactly one node injects the
  /// initial token.
  void start(bool with_token);
  /// Stops timers (ends a simulation cleanly).
  void stop();

  bool holding_token() const { return holding_; }
  /// Sequence number of the token this node last held or passed.  With
  /// holding_token(), lets observers distinguish the operational token
  /// (maximum sequence) from a stale one a partitioned/evicted member is
  /// still clutching — the protocol tolerates stale holders (their sends
  /// are dropped unacknowledged), so only duplicate *live* tokens violate
  /// ring uniqueness.
  u32 token_seq() const { return token_seq_; }
  const Ring& ring() const { return ring_; }
  const RetherStats& stats() const { return stats_; }
  std::size_t queue_depth() const { return queue_.size(); }

  /// A node outside the ring can request admission (extension).
  void request_join();

  /// Byzantine fault-injection hook (chaos kStateFault, DESIGN.md §10):
  /// this node starts holding a forged token whose sequence is `seq_ahead`
  /// beyond the highest it has seen — as if a corrupted token frame slipped
  /// past the stale-sequence filter.  seq_ahead = 0 duplicates the current
  /// operational sequence, so two live holders exist (the split brain the
  /// single-token probe catches).  Never call outside fault injection.
  void inject_forged_token(u32 seq_ahead);

  // --- real-time mode --------------------------------------------------
  /// Frames matching this predicate use the reserved (guaranteed) queue;
  /// everything else is best effort.  Unset = everything is best effort.
  void set_rt_classifier(std::function<bool(const net::Packet&)> fn) {
    rt_classifier_ = std::move(fn);
  }

  /// Requests a reservation of `frames` guaranteed frames per token cycle.
  /// Resolved (admitted/rejected against the target cycle time) the next
  /// time this node holds the token; 0 releases the reservation.
  void request_reservation(u16 frames);
  ReservationState reservation_state() const { return reservation_state_; }
  std::size_t rt_queue_depth() const { return rt_queue_.size(); }

 private:
  void hold_token();
  void drain_quantum();
  void resolve_pending_reservation();
  void pass_token();
  void send_token_to(const net::MacAddress& dst);
  void on_ack_timeout();
  void evict_successor_and_retry();
  void on_watchdog();
  void kick_watchdog();
  void handle_token(const net::MacAddress& from, const RetherFrame& f);
  void handle_ack(const net::MacAddress& from, const RetherFrame& f);
  void handle_join_req(const net::MacAddress& from);
  void handle_join_ack(const RetherFrame& f);

  sim::Simulator& sim_;
  RetherParams params_;
  RetherStats stats_;
  Ring ring_;

  bool started_{false};
  bool holding_{false};
  u32 token_seq_{0};       ///< sequence of the token we hold / last saw
  u32 highest_seq_seen_{0};

  // Pass-in-progress state.
  std::optional<net::MacAddress> awaiting_ack_from_;
  u32 transmissions_{0};
  sim::Timer ack_timer_;
  sim::Timer hold_timer_;   ///< idle-hold delay before passing
  sim::Timer watchdog_;

  std::deque<net::Packet> queue_;     ///< best-effort
  std::deque<net::Packet> rt_queue_;  ///< reserved traffic

  std::function<bool(const net::Packet&)> rt_classifier_;
  ReservationState reservation_state_{ReservationState::kNone};
  u16 pending_reservation_{0};
  TimePoint last_hold_{.ns = -1};  ///< cycle-time measurement
  Duration last_cycle_{};          ///< duration of the previous cycle
};

}  // namespace vwire::rether
