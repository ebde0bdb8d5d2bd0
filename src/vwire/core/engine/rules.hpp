// The FSL rule-semantics core (paper Fig 4(b), §3.3, §5.2): counter → term
// → condition → action propagation over the six tables — the "counting
// events" mechanism the FIE and FAE share — run by both the live
// EngineLayer and the OfflineAnalyzer.  It owns the eligibility snapshot
// (the counters a packet may count are fixed before any update, so one
// enabled by that packet's own cascade does not count it: Fig 5's
// handshake-ACK / DATA hand-off), two-phase firing (conditions are evaluated
// against the triggering event's state and rising edges QUEUED; actions run
// after the sweep, for at most max_cascade_depth * 16 drain rounds: Fig 6
// fires FAIL + RESET_CNTR and STOP off one counter value) and the counter
// and timer actions; STOP/FLAG_ERROR/FAIL are the Host's.  A machine loaded
// for a node evaluates only what that node owns; the ideal observer passes
// every locality test.
#pragma once

#include <deque>
#include <memory>

#include "vwire/core/tables/tables.hpp"

namespace vwire::core {

/// Work counters of the cascade (EngineStats extends them).
struct RuleStats {
  u64 counter_updates{0};
  u64 terms_evaluated{0};
  u64 conditions_evaluated{0};
  u64 actions_executed{0};
  u64 cascade_overflows{0};
};

class RuleMachine {
 public:
  /// The wrapper's side.  Hooks run synchronously inside the cascade.
  class Host {
   public:
    virtual TimePoint now() const = 0;
    /// A local counter write, before the counter's terms re-evaluate.
    virtual void counter_written(CounterId /*id*/, i64 /*value*/) {}
    /// A local term changed, before its conditions re-evaluate.
    virtual void term_changed(TermId /*id*/, bool /*state*/) {}
    /// Action `id` of rule `cond` (which rose at cascade `depth`) runs now,
    /// before the machine applies it.
    virtual void action_fired(const ActionEntry& e, ActionId id, CondId cond,
                              u16 depth) = 0;
    /// The drain-round bound tripped (a rule loop); the queue was dropped.
    virtual void rule_loop() {}

   protected:
    ~Host() = default;
  };

  RuleMachine(Host& host, RuleStats& stats, u32 max_cascade_depth = 64);

  /// Loads `tables` (kept by reference) for node `self` with all state
  /// cleared; `observer` passes every locality test instead.
  void load(const TableSet& tables, NodeId self, bool observer = false);
  void reset();

  /// Initial sweep: conditions already true (notably (TRUE) rules) fire.
  void start();
  /// A packet of class `filter` seen on `dir` from `src` to `dst` at node
  /// `at`: each enabled event counter homed at `at` watching that flow
  /// counts once, then the cascade runs.  Returns how many counted.
  std::size_t count_packet(FilterId filter, net::Direction dir, NodeId src,
                           NodeId dst, NodeId at);
  /// A counter value mirrored from its home (not re-broadcast).
  void mirror_counter(CounterId id, i64 value);
  /// A term status mirrored from its evaluating node; false if unchanged.
  bool mirror_term(TermId id, bool state);

  i64 counter_value(CounterId id) const { return counters_[id].value; }
  bool term_state(TermId id) const { return term_state_[id] != 0; }
  bool condition_state(CondId id) const { return cond_state_[id] != 0; }
  /// Rising edges of condition `id` since load/reset.
  u32 rises(CondId id) const { return rises_[id]; }

 private:
  struct CounterState {
    i64 value{0};
    bool enabled{false};
  };

  bool local(NodeId n) const { return observer_ || n == self_; }
  void write_counter(CounterId id, i64 value, int depth);
  void eval_term(TermId id, int depth);
  void eval_condition(CondId id, int depth);
  void drain();
  void fire(CondId id, u16 depth);

  Host& host_;
  RuleStats& stats_;
  u32 max_cascade_depth_;

  const TableSet* t_{nullptr};
  NodeId self_{kInvalidId};
  bool observer_{false};

  std::vector<CounterState> counters_;
  std::vector<char> term_state_;
  std::vector<char> cond_state_;
  std::vector<u32> rises_;

  /// Event counters this machine counts, per filter, and the snapshot
  /// buffer reserved to the longest list: counting never allocates.
  std::vector<std::vector<CounterId>> counters_by_filter_;
  std::vector<CounterId> eligible_;
  /// Condition-evaluation stack, sized to the longest program.
  std::unique_ptr<bool[]> eval_stack_;
  std::size_t eval_stack_size_{0};

  /// Queued rising edges with the cascade depth each rose at.
  std::deque<std::pair<CondId, u16>> fired_;
  bool draining_{false};
};

}  // namespace vwire::core
