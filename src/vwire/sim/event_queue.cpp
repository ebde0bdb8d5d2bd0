#include "vwire/sim/event_queue.hpp"

#include "vwire/util/assert.hpp"

namespace vwire::sim {

namespace {
constexpr std::size_t kArity = 4;
}  // namespace

EventId EventQueue::schedule(TimePoint at, EventFn fn) {
  u32 slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = slots_[slot].next_free;
  } else {
    VWIRE_ASSERT(slots_.size() < kNoSlot, "event slab exhausted");
    slot = static_cast<u32>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  heap_.push_back(Key{at, next_seq_++, slot, s.gen});
  sift_up(heap_.size() - 1);
  ++live_count_;
  return (static_cast<EventId>(s.gen) << 32) | (static_cast<EventId>(slot) + 1);
}

void EventQueue::cancel(EventId id) {
  const u64 low = id & 0xffffffffu;
  if (low == 0 || low > slots_.size()) return;
  const u32 slot = static_cast<u32>(low - 1);
  // Ignore ids that already fired or were already cancelled: their slot's
  // generation has moved on.
  if (slots_[slot].gen != static_cast<u32>(id >> 32)) return;
  // Free the slot before the capture's destructor runs, so a destructor
  // that touches the queue sees a consistent one.
  EventFn dead = std::move(slots_[slot].fn);
  release(slot);
}

void EventQueue::release(u32 slot) {
  Slot& s = slots_[slot];
  ++s.gen;
  s.next_free = free_head_;
  free_head_ = slot;
  --live_count_;
}

void EventQueue::skim() {
  while (!heap_.empty()) {
    const Key& top = heap_.front();
    if (slots_[top.slot].gen == top.gen) return;  // live
    pop_top();  // stale: the event fired or was cancelled
  }
}

TimePoint EventQueue::next_time() {
  skim();
  VWIRE_ASSERT(!heap_.empty(), "next_time on empty queue");
  return heap_.front().at;
}

TimePoint EventQueue::pop_and_run() {
  skim();
  VWIRE_ASSERT(!heap_.empty(), "pop_and_run on empty queue");
  const Key top = heap_.front();
  pop_top();
  // Move the callable out and free its slot before running it: the
  // callback may schedule events (growing the slab) or cancel its own id.
  EventFn fn = std::move(slots_[top.slot].fn);
  release(top.slot);
  fn();
  return top.at;
}

void EventQueue::pop_top() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void EventQueue::sift_up(std::size_t i) {
  const Key k = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(k, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = k;
}

void EventQueue::sift_down(std::size_t i) {
  const Key k = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    const std::size_t last = first + kArity < n ? first + kArity : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], k)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = k;
}

}  // namespace vwire::sim
