// Rule-firing provenance (DESIGN.md §7).
//
// Every action the FIE/FAE executes appends one FiringRecord to a per-node
// ring buffer: when it fired, which rule (condition) and action, the counter
// and term values *at evaluation time*, the matched filter and packet for
// packet faults, the applied-vs-requested delay for DELAY quantization, and
// the cascade depth of the triggering update.  The ring overwrites oldest
// records and reserves its storage once, at the first firing, so the hot
// path never grows and an idle ring costs nothing; the Controller collects
// all rings when the scenario ends and `ScenarioResult::explain(rule_id)`
// answers "why did rule N fire, and with what state?".
#pragma once

#include <string>
#include <vector>

#include "vwire/util/types.hpp"

namespace vwire::obs {

/// One executed action with the engine state that produced it.  POD-ish on
/// purpose: appending must be a few stores (the fig7 configuration fires 25
/// actions per matched packet).
struct FiringRecord {
  static constexpr std::size_t kMaxCounters = 6;
  static constexpr std::size_t kMaxTerms = 4;
  static constexpr u16 kNone = 0xffff;

  struct CounterSnap {
    u16 id{kNone};
    i64 value{0};
  };
  struct TermSnap {
    u16 id{kNone};
    bool state{false};
  };

  TimePoint at{};             ///< sim time the action executed
  u16 node{kNone};            ///< executing node (table index)
  u16 rule{kNone};            ///< condition id that fired (script order)
  u16 action{kNone};          ///< action table index
  u16 filter{kNone};          ///< matched filter for packet faults
  u8 kind{0};                 ///< core::ActionKind of the action
  const char* kind_name{""};  ///< static name for kind (core::to_string)
  u16 cascade_depth{0};       ///< counter/term cascade depth at evaluation
  u64 packet_uid{0};          ///< packet the fault applied to (0 = none)
  i64 value{0};               ///< outcome: applied delay ns / assigned value…
  i64 value2{0};              ///< DELAY: requested (pre-quantization) ns

  u8 n_counters{0};
  u8 n_terms{0};
  CounterSnap counters[kMaxCounters];
  TermSnap terms[kMaxTerms];

  /// Filled in at collection time (the engine only knows table indices).
  std::string node_name;
};

/// Fixed-capacity overwrite-oldest ring of FiringRecords.  capacity 0
/// disables recording entirely (append becomes a no-op).
///
/// Storage is reserved on first use: constructing or reset()ting a ring
/// only stores its capacity, the first claim() makes the one allocation,
/// and slots are constructed as the first lap reaches them.  An armed
/// engine whose rules never fire therefore pays nothing for provenance.
class ProvenanceRing {
 public:
  explicit ProvenanceRing(std::size_t capacity = 0) : capacity_(capacity) {}
  ~ProvenanceRing() { release(); }
  ProvenanceRing(const ProvenanceRing&) = delete;
  ProvenanceRing& operator=(const ProvenanceRing&) = delete;

  /// Empties the ring and sets its capacity.  A changed capacity gives the
  /// reservation back; an unchanged one keeps it, like clear().
  void reset(std::size_t capacity) {
    if (capacity != capacity_) {
      release();
      capacity_ = capacity;
    }
    clear();
  }

  bool enabled() const { return capacity_ != 0; }
  std::size_t capacity() const { return capacity_; }
  u64 total() const { return total_; }
  std::size_t size() const {
    return total_ < capacity_ ? static_cast<std::size_t>(total_) : capacity_;
  }
  u64 dropped() const { return total_ - size(); }
  /// Slots constructed so far: 0 until the first claim(), then growing
  /// with the first lap up to capacity().
  std::size_t constructed() const { return built_; }

  void append(const FiringRecord& r) {
    if (!enabled()) return;
    claim() = r;
  }

  /// Hot-path append: advances the ring and returns the slot to fill in
  /// place, avoiding a temporary record + copy.  Precondition: enabled().
  /// A slot the first lap reaches is default-constructed; later laps hand
  /// back the previous lap's field values — callers must overwrite every
  /// field they rely on (fill_record does).  Once the first lap is done the
  /// only branch is the wrap, taken once per capacity() claims.
  FiringRecord& claim() {
    if (head_ == built_) advance_frontier();
    ++total_;
    return slots_[head_++];
  }

  /// Records oldest → newest.
  std::vector<FiringRecord> collect() const;

  /// Empties the ring; the reservation and its constructed slots stay.
  void clear() {
    head_ = 0;
    total_ = 0;
  }

 private:
  /// claim()'s slow path at head_ == built_: wraps a full lap, or
  /// constructs the next first-lap slot (allocating on the first call).
  void advance_frontier();
  void release();

  FiringRecord* slots_{nullptr};  ///< capacity_ slots, built_ constructed
  std::size_t capacity_{0};
  std::size_t built_{0};  ///< slots [0, built_) are constructed
  std::size_t head_{0};   ///< next slot to claim; may sit at capacity_
  u64 total_{0};
};

}  // namespace vwire::obs
