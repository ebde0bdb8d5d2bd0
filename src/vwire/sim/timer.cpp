#include "vwire/sim/timer.hpp"

namespace vwire::sim {

Duration quantize_up(Duration d, Duration tick) {
  if (tick.ns <= 0 || d.ns <= 0) return d;
  i64 ticks = (d.ns + tick.ns - 1) / tick.ns;
  return {ticks * tick.ns};
}

void Timer::start(Duration delay) {
  cancel();
  armed_ = true;
  deadline_ = sim_.now() + delay;
  event_ = sim_.after(delay, [this] {
    armed_ = false;
    event_ = kNoEvent;
    on_fire_();
  });
}

void Timer::cancel() {
  armed_ = false;
  if (event_ != kNoEvent) {
    sim_.cancel(event_);
    event_ = kNoEvent;
  }
}

}  // namespace vwire::sim
