// The Fault Injection Engine / Fault Analysis Engine (paper §3.3, §5.2).
//
// One EngineLayer per node implements both the FIE and the FAE — the paper
// notes they share the same mechanism ("the basic mechanism of flagging
// errors is based on the same idea of counting events").  Inserted between
// the driver (plus RLL and control agent) and the IP stack, it runs the
// control flow of Fig 4(b) for every packet:
//
//   classify → update counters → evaluate terms → evaluate conditions →
//   trigger actions (faults consume/divert the packet, counter updates
//   release it)
//
// The counter → term → condition → action cascade itself is the
// RuleMachine's (rules.hpp), shared with the offline analyzer; this layer
// adds classification, packet faults, STOP/FLAG_ERROR/FAIL, provenance and
// the control plane.
//
// Distributed state (paper §5.2): counters mirror to the nodes that
// evaluate terms over them; term status mirrors to the nodes that evaluate
// dependent conditions; conditions are evaluated at the nodes where their
// actions execute.  All mirroring rides the control plane, so it takes
// real (simulated) wire time — exactly the deployment the paper describes.
#pragma once

#include "vwire/core/control/agent.hpp"
#include "vwire/core/control/messages.hpp"
#include "vwire/core/engine/classifier.hpp"
#include "vwire/core/engine/rules.hpp"
#include "vwire/obs/metrics.hpp"
#include "vwire/obs/provenance.hpp"
#include "vwire/sim/timer.hpp"

namespace vwire::core {

struct EngineParams {
  /// Simulated per-packet processing charges; see DESIGN.md §5
  /// (calibration).  These stand in for the Pentium-4 CPU time the paper
  /// measures in Fig 8 and scale linearly with classification work.
  Duration cost_base{nanos(150)};
  Duration cost_per_tuple{nanos(30)};
  Duration cost_per_action{nanos(50)};
  bool charge_costs{true};

  /// The DELAY primitive quantizes upward to this tick — the paper's
  /// "granularity of delay can be no less than a jiffy, i.e. 10 ms".
  Duration delay_quantum{sim::kJiffy};

  u64 seed{0x7ee1};  ///< randomness for MODIFY's default perturbation
  u32 max_cascade_depth{64};

  /// FiringRecords kept per node (overwrite-oldest); 0 disables rule-firing
  /// provenance entirely.
  std::size_t provenance_capacity{4096};
};

struct EngineStats : RuleStats {
  u64 packets_seen{0};
  u64 packets_matched{0};
  u64 drops{0};
  u64 delays{0};
  u64 dups{0};
  u64 modifies{0};
  u64 reorders_held{0};
  u64 reorders_released{0};
  u64 control_tx{0};
  u64 control_rx{0};
};

/// Single source of field names for formatting and registry exposure
/// (obs::stat_rows / obs::expose_stats).
template <class Fn>
void for_each_field(const EngineStats& s, Fn&& fn) {
  fn("packets_seen", s.packets_seen);
  fn("packets_matched", s.packets_matched);
  fn("counter_updates", s.counter_updates);
  fn("terms_evaluated", s.terms_evaluated);
  fn("conditions_evaluated", s.conditions_evaluated);
  fn("actions_executed", s.actions_executed);
  fn("drops", s.drops);
  fn("delays", s.delays);
  fn("dups", s.dups);
  fn("modifies", s.modifies);
  fn("reorders_held", s.reorders_held);
  fn("reorders_released", s.reorders_released);
  fn("control_tx", s.control_tx);
  fn("control_rx", s.control_rx);
  fn("cascade_overflows", s.cascade_overflows);
}

struct ScenarioError {
  TimePoint at;
  NodeId node{kInvalidId};
  CondId cond{kInvalidId};
};

/// Shared run bookkeeping: engines report stops, errors and activity; the
/// runner polls it.  (In the paper these travel as control messages to the
/// control node — ours are sent too; the context is the runner's
/// authoritative, race-free copy.)
class ScenarioContext {
 public:
  void note_activity(TimePoint t) {
    if (t > last_activity_) last_activity_ = t;
  }
  TimePoint last_activity() const { return last_activity_; }

  void on_stop(NodeId node, TimePoint t) {
    if (!stopped_) {
      stopped_ = true;
      stop_node_ = node;
      stop_time_ = t;
    }
  }
  bool stopped() const { return stopped_; }
  NodeId stop_node() const { return stop_node_; }
  TimePoint stop_time() const { return stop_time_; }

  void on_error(ScenarioError e) { errors_.push_back(e); }
  const std::vector<ScenarioError>& errors() const { return errors_; }

  void reset() {
    last_activity_ = {};
    stopped_ = false;
    stop_node_ = kInvalidId;
    errors_.clear();
  }

 private:
  TimePoint last_activity_{};
  bool stopped_{false};
  NodeId stop_node_{kInvalidId};
  TimePoint stop_time_{};
  std::vector<ScenarioError> errors_;
};

class EngineLayer final : public host::Layer, private RuleMachine::Host {
 public:
  EngineLayer(sim::Simulator& sim, EngineParams params = {});
  ~EngineLayer() override;

  std::string_view name() const override { return "vwire"; }

  // --- wiring (done by the Testbed / ScenarioRunner) ----------------------
  void set_control(control::ControlAgent* agent) { control_ = agent; }
  void set_context(ScenarioContext* ctx) { context_ = ctx; }
  const ScenarioContext* context() const { return context_; }
  /// Scenario epoch stamped onto every outbound control message so
  /// receivers can fence stale cross-scenario traffic (set by INIT).
  void set_epoch(u32 epoch) { epoch_ = epoch; }

  /// Seeds the RATE/PROB fault-modifier streams.  The ScenarioRunner passes
  /// the scenario's effective seed before arming; each modified action draws
  /// from its own derived child stream ("fsl.mod", (node << 32) | action),
  /// so adding an action never shifts another action's draws.
  void set_modifier_seed(u64 seed);

  /// Installs a table set (normally deserialized from an INIT message) and
  /// resolves this node's identity by MAC.  A node absent from the table
  /// becomes a transparent bystander.
  void load(TableSet tables);

  /// Begins the scenario: performs the initial condition sweep, so (TRUE)
  /// rules fire (the idiom the paper's Fig 5 uses for initialization).
  void start(NodeId controller_node);

  /// Clears all run-time state (between scenarios).
  void reset();
  bool loaded() const { return loaded_; }
  bool running() const { return running_; }

  // --- chain ----------------------------------------------------------------
  void send_down(net::Packet pkt) override;
  void receive_up(net::Packet pkt) override;

  /// Node crash: packets the engine holds (REORDER windows, cost-delayed
  /// releases) are lost with the node, exactly like frames sitting in a
  /// real NIC ring at power-off.
  void on_node_crash() override;

  // --- control-plane inputs ---------------------------------------------------
  void handle_control(const net::MacAddress& from, BytesView payload);

  // --- introspection (FAE reporting, tests) -----------------------------------
  i64 counter_value(CounterId id) const { return rules_.counter_value(id); }
  const EngineStats& stats() const { return stats_; }
  const TableSet& tables() const { return tables_; }
  NodeId self() const { return self_; }

  /// Rule-firing provenance (one record per executed action; see
  /// obs/provenance.hpp).  The Controller collects this at run end.
  const obs::ProvenanceRing& provenance() const { return provenance_; }

  /// Registers this engine's stats (as counter views) and a processing-cost
  /// histogram under `prefix` (convention: "engine.<node>").
  void bind_metrics(obs::MetricsRegistry& reg, const std::string& prefix);

 private:
  /// How a fault disposed of the packet in flight.
  enum class Fate : u8 { kRelease, kConsumed, kDiverted };

  void process(net::Packet pkt, net::Direction dir);
  void release(net::Packet pkt, net::Direction dir, Duration cost);
  void release_now(net::Packet&& pkt, net::Direction dir);

  // RuleMachine::Host: control-plane mirroring, provenance and the
  // STOP/FLAG_ERROR/FAIL actions.
  TimePoint now() const override { return sim_.now(); }
  void counter_written(CounterId id, i64 value) override;
  void term_changed(TermId id, bool state) override;
  void action_fired(const ActionEntry& e, ActionId id, CondId cond,
                    u16 depth) override;
  void rule_loop() override;

  /// Fills a claimed ring slot for `action` of `cond`: stamps time/node/
  /// kind and snapshots the condition's counters and terms *before* the
  /// action mutates anything.  In-place on purpose — the paper's heaviest
  /// configuration fires 25 actions per matched packet, so no temporary
  /// FiringRecord (≈250 B + a std::string) is constructed or copied.
  /// Callers fill the outcome fields afterwards.
  void fill_record(obs::FiringRecord& r, CondId cond, ActionId action,
                   u16 depth) const;

  // Fault application; implemented in actions.cpp.
  Fate apply_faults(net::Packet& pkt, net::Direction dir, FilterId filter,
                    NodeId src, NodeId dst);
  Fate apply_one(const ActionEntry& a, ActionId id, net::Packet& pkt,
                 net::Direction dir);
  /// RATE/PROB gate: does this match fire the (active) fault?  Counts the
  /// match for RATE and draws from the action's stream for PROB.
  bool modifier_admits(const ActionEntry& e, ActionId id);
  void reseed_modifiers();

  void send_control(NodeId to, control::ControlMessage msg);

  bool is_transport_frame(const net::Packet& pkt) const;

  sim::Simulator& sim_;
  EngineParams params_;
  control::ControlAgent* control_{nullptr};
  ScenarioContext* context_{nullptr};

  TableSet tables_;
  std::unique_ptr<Classifier> classifier_;
  std::unique_ptr<VarStore> vars_;
  bool loaded_{false};
  bool running_{false};
  NodeId self_{kInvalidId};
  NodeId controller_{kInvalidId};
  u32 epoch_{0};
  /// Bumped by on_node_crash(); cost-delayed releases scheduled before the
  /// crash check it and drop themselves instead of resurrecting packets.
  u64 purge_gen_{0};

  // Precomputed per-node indices.
  std::vector<ActionId> local_fault_actions_;  ///< packet faults, exec==self
  // Counters/terms referenced by each condition, for provenance snapshots.
  std::vector<std::vector<CounterId>> cond_counters_;
  std::vector<std::vector<TermId>> cond_terms_;

  // REORDER buffers, keyed by action id.  A REORDER collects one window of
  // packets per rising edge of its condition, releases them in the scripted
  // permutation, and is done until the condition rises again: served_ holds
  // the condition's rise count when the window completed.
  std::unordered_map<ActionId, std::vector<net::Packet>> reorder_buf_;
  std::unordered_map<ActionId, u32> reorder_served_;

  // Per-direction release ordering guard: costs are latency, never
  // reordering.
  TimePoint last_release_[2] = {};

  // Cost accounting for the packet currently being processed.
  std::size_t actions_this_packet_{0};

  // Fault-modifier state: per-action match counters (RATE) and RNG streams
  // (PROB), rebuilt from modifier_seed_ on load()/reset() so a re-armed
  // scenario replays identically.
  u64 modifier_seed_{0};
  std::vector<u64> mod_count_;
  std::vector<Rng> mod_rng_;

  Rng rng_;
  EngineStats stats_;
  RuleMachine rules_;
  obs::ProvenanceRing provenance_;
  obs::Histogram* proc_hist_{nullptr};  ///< per-packet processing cost (ns)
};

}  // namespace vwire::core
