// Restartable one-shot timer.
//
// TCP retransmission, RLL acknowledgement, Rether token-ack and the DELAY
// fault primitive all follow the same pattern: arm, maybe re-arm, maybe
// cancel, fire once.  Timer wraps that pattern and guarantees a cancelled or
// re-armed timer never fires stale: EventQueue::cancel is exact, so a
// superseded schedule is gone from the queue.
//
// The paper notes the Linux soft-timer granularity is one jiffy (10 ms) and
// that DELAY can be no finer (§5.2); `quantize_up` reproduces that rounding.
#pragma once

#include "vwire/sim/simulator.hpp"

namespace vwire::sim {

/// Rounds `d` up to a whole number of `tick`s (the paper's jiffy behaviour).
Duration quantize_up(Duration d, Duration tick);

/// The Linux 2.4 jiffy the paper's DELAY primitive is quantized to.
inline constexpr Duration kJiffy = millis(10);

class Timer {
 public:
  Timer(Simulator& sim, EventFn on_fire)
      : sim_(sim), on_fire_(std::move(on_fire)) {}
  ~Timer() { cancel(); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// (Re)arms the timer `delay` from now; a pending schedule is superseded.
  void start(Duration delay);

  /// Stops the timer; a stopped timer never fires.
  void cancel();

  bool armed() const { return armed_; }

  /// Absolute expiry time; only meaningful while armed().
  TimePoint deadline() const { return deadline_; }

 private:
  Simulator& sim_;
  EventFn on_fire_;
  EventId event_{kNoEvent};
  TimePoint deadline_{};
  bool armed_{false};
};

}  // namespace vwire::sim
