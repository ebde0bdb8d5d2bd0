// Offline trace analysis: run an FSL analysis script over a recorded
// packet trace, after the fact.
//
// The paper's motivation (§1) is replacing the manual inspection of
// collected tcpdump traces; the FAE does this live.  OfflineAnalyzer closes
// the loop for post-mortem work: the same compiled six tables are replayed
// against a TraceBuffer through the same RuleMachine the live engines run,
// so counting, the eligibility snapshot, two-phase firing and the counter
// actions are one implementation.
//
// Differences from the live engines, by construction:
//  * locality — the machine is the ideal observer: evaluation is globally
//    ordered and instantaneous, with no control-plane propagation delay,
//    so distributed rules behave as if every node shared one clock;
//  * faults — packet faults cannot be applied to the past; they are tallied
//    as `would_have_fired` instead;
//  * the capture-tap window — the tap sits below the engine in each node's
//    stack, so a frame the live engine counts on its send path reaches the
//    trace only after the engine's simulated processing cost.  A live run
//    that ends inside that window has counted frames this trace lacks;
//    to compare live and offline counts, let the simulator run past the
//    last engine cost (LiveVsOffline runs it 1 ms more) before replaying.
#pragma once

#include <unordered_map>

#include "vwire/core/engine/classifier.hpp"
#include "vwire/core/engine/rules.hpp"
#include "vwire/trace/trace.hpp"

namespace vwire::core {

struct OfflineError {
  std::size_t record_index;
  TimePoint at;
  CondId cond;
};

struct OfflineResult {
  std::vector<OfflineError> errors;
  bool stopped{false};
  std::size_t stop_index{0};          ///< record that triggered STOP
  std::size_t records_processed{0};
  u64 would_have_fired_faults{0};     ///< DROP/DELAY/… activations observed
  std::unordered_map<std::string, i64> counters;

  bool passed() const { return errors.empty(); }
};

class OfflineAnalyzer : private RuleMachine::Host {
 public:
  explicit OfflineAnalyzer(TableSet tables);

  /// Replays `trace` in record order; stops early at a STOP action.
  OfflineResult analyze(const trace::TraceBuffer& trace);

 private:
  void process_record(const trace::TraceRecord& rec);

  // RuleMachine::Host
  TimePoint now() const override { return now_; }
  void action_fired(const ActionEntry& e, ActionId id, CondId cond,
                    u16 depth) override;

  TableSet tables_;
  Classifier classifier_;
  VarStore vars_;
  RuleStats stats_;
  RuleMachine rules_;

  TimePoint now_{};
  std::size_t index_{0};  ///< record being replayed
  OfflineResult result_;
};

}  // namespace vwire::core
