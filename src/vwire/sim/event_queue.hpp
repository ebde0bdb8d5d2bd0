// Deterministic discrete-event queue.
//
// Events at equal timestamps fire in insertion order (a strictly increasing
// sequence number breaks ties), so the queue runs events in the total order
// (at, seq) and a scenario run is a pure function of its inputs and seeds.
//
// Storage is a slab of slots, each holding one event's EventFn.  A slot is
// reused through a free list once its event has fired or been cancelled,
// and every release bumps the slot's generation.  An EventId packs
// (generation << 32) | (slot + 1), so cancel is one generation compare plus
// a slot release, and an id whose event already fired or was cancelled —
// even one whose slot now holds a newer event — is recognised as stale
// (until the slot's 32-bit generation wraps, 2^32 reuses later).
//
// Ordering is a 4-ary min-heap of 24-byte keys {at, seq, slot, gen}.  A
// cancelled event's key stays in the heap and is skipped when it reaches
// the top (its slot's generation has moved on); the RLL and TCP
// retransmit timers cancel far more often than they fire.
#pragma once

#include <vector>

#include "vwire/sim/event_fn.hpp"
#include "vwire/util/types.hpp"

namespace vwire::sim {

/// Handle for cancelling a scheduled event.  Value 0 is "no event".
using EventId = u64;
inline constexpr EventId kNoEvent = 0;

class EventQueue {
 public:
  /// Schedules `fn` at absolute time `at`; returns a cancellable id.
  EventId schedule(TimePoint at, EventFn fn);

  /// Cancels a pending event; harmless if already fired or cancelled.
  void cancel(EventId id);

  bool empty() const { return live_count_ == 0; }
  std::size_t size() const { return live_count_; }

  /// Time of the earliest live event; queue must be non-empty.
  TimePoint next_time();

  /// Pops and runs the earliest live event; returns its timestamp.
  /// Queue must be non-empty.
  TimePoint pop_and_run();

 private:
  static constexpr u32 kNoSlot = 0xffffffffu;

  struct Slot {
    EventFn fn;
    u32 gen{0};                ///< bumped on every release
    u32 next_free{kNoSlot};    ///< free-list link while the slot is free
  };
  struct Key {
    TimePoint at;
    u64 seq;
    u32 slot;
    u32 gen;  ///< the slot's generation when the event was scheduled
  };
  static_assert(sizeof(Key) == 24);

  static bool before(const Key& a, const Key& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  /// Frees a slot whose event fired or was cancelled.
  void release(u32 slot);
  /// Drops stale keys from the top of the heap.
  void skim();
  void pop_top();
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<Slot> slots_;
  std::vector<Key> heap_;
  u32 free_head_{kNoSlot};
  std::size_t live_count_{0};
  u64 next_seq_{1};
};

}  // namespace vwire::sim
