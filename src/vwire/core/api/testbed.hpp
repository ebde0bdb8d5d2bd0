// Testbed — the top-level fixture users assemble (paper §3.1).
//
// A Testbed owns the simulator, a medium (switched LAN or shared bus), and
// the nodes.  Every node gets the full VirtualWire stack by default,
// mirroring Fig 4(a):
//
//      IP demux                      (host::IpLayer)
//      [protocol under test]         (added by the user, e.g. Rether)
//      FIE/FAE engine                (core::EngineLayer)
//      control agent                 (control::ControlAgent)
//      packet tap                    (trace::TapLayer)
//      Reliable Link Layer           (rll::RllLayer)
//      NIC / driver                  (host::Nic)
//
// Transport protocols (TCP/UDP) and applications attach on top via the
// node's IP layer, exactly like userspace sockets above a kernel stack.
#pragma once

#include <functional>

#include "vwire/core/control/controller.hpp"
#include "vwire/obs/flight.hpp"
#include "vwire/phy/shared_bus.hpp"
#include "vwire/phy/switched_lan.hpp"
#include "vwire/rll/rll_layer.hpp"
#include "vwire/trace/trace.hpp"

namespace vwire {

struct TestbedConfig {
  enum class MediumKind { kSwitchedLan, kSharedBus };
  MediumKind medium{MediumKind::kSwitchedLan};
  phy::LinkParams link{};

  bool install_rll{true};
  rll::RllParams rll{};

  bool install_engine{true};
  core::EngineParams engine{};

  bool install_trace{true};
  std::size_t trace_capacity{1'000'000};

  /// Binds every component (medium, engines, agents, RLL, TCP) into the
  /// testbed's MetricsRegistry and keeps per-node rule-firing provenance.
  /// Off: no registry entries and provenance_capacity is forced to 0, so
  /// the hot paths skip all recording (the overhead baseline).
  bool telemetry{true};

  /// Per-node causal flight recorder (DESIGN.md §12).  Each node keeps a
  /// bounded lock-free ring of span events (NIC tx/rx, link drops/delays,
  /// fault firings, ARQ retransmits, crash/recover); collect_timeline()
  /// merges them into one causal timeline.  0 disables recording entirely;
  /// telemetry=false also forces it off (the overhead baseline).  The
  /// default (2048 slots = 96 KiB/node) keeps the ring cache-resident so
  /// steady-state recording stays inside the 2% overhead budget; raise it
  /// when a repro needs deeper pre-violation history.
  std::size_t flight_capacity{2048};

  /// Fraction of spans recorded, [0,1].  Sampling is deterministic per span
  /// id, so a sampled span keeps *all* its events (and its children's — a
  /// child span hashes independently but the origin is what matters for
  /// repro timelines).  1.0 records everything.
  double trace_sample_rate{1.0};

  /// Per-node kernel-stack processing charged above the chain.
  Duration rx_stack_cost{micros(28)};
  Duration tx_stack_cost{micros(17)};

  u64 seed{42};
};

struct NodeHandles {
  host::Node* node{nullptr};
  rll::RllLayer* rll{nullptr};
  trace::TapLayer* tap{nullptr};
  control::ControlAgent* agent{nullptr};
  core::EngineLayer* engine{nullptr};
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config = {});

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  /// Adds a node with an auto-assigned MAC (02:00:00::idx) and IP
  /// (10.0.0.idx+1).  All pairwise neighbor entries are maintained.
  host::Node& add_node(const std::string& name);

  /// Adds a node with explicit addresses (to match a script's NODE_TABLE).
  host::Node& add_node(const std::string& name, net::MacAddress mac,
                       net::Ipv4Address ip);

  host::Node& node(std::string_view name);
  NodeHandles& handles(std::string_view name);
  std::size_t node_count() const { return entries_.size(); }
  std::vector<std::string> node_names() const;

  sim::Simulator& simulator() { return sim_; }
  phy::Medium& medium() { return *medium_; }
  trace::TraceBuffer& trace() { return trace_; }
  const TestbedConfig& config() const { return config_; }

  /// Central metrics registry ("layer.node.metric" naming, DESIGN.md §7).
  /// Empty when config.telemetry is false.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Merged causal timeline across every node's flight recorder: each event
  /// stamped with its node name, sorted by timestamp (stable, so same-tick
  /// events keep per-node recording order).  Empty when tracing is off.
  std::vector<obs::SpanEvent> collect_timeline() const;

  /// Total span events evicted (drop-oldest) across all recorders.
  u64 timeline_dropped() const;

  /// Emits an FSL NODE_TABLE section matching this testbed, so scripts can
  /// be generated rather than hand-synchronized.
  std::string node_table_fsl() const;

  /// Builds the controller view (engine+agent per node) for Controller.
  std::vector<control::ManagedNode> managed_nodes();

  /// Observer of RLL link-down/link-up transitions on any node (peer
  /// quarantined / healed).  Transitions are always annotated into the
  /// trace; the hook is for whoever supervises the run (ScenarioRunner
  /// collects them into ScenarioResult::link_events).
  using LinkEventHook = std::function<void(
      const std::string& node, const net::MacAddress& peer, bool up)>;
  void set_link_event_hook(LinkEventHook hook) { link_hook_ = std::move(hook); }

 private:
  TestbedConfig config_;
  sim::Simulator sim_;
  /// Declared before the medium and nodes: components hold registry-owned
  /// histogram pointers, so the registry must be destroyed last.
  obs::MetricsRegistry metrics_;
  std::unique_ptr<phy::Medium> medium_;
  trace::TraceBuffer trace_;
  std::vector<std::pair<std::string, NodeHandles>> entries_;
  std::vector<std::unique_ptr<host::Node>> nodes_;
  /// One recorder per node, same index as nodes_.  unique_ptr: recorders
  /// hold atomics (not movable) and nodes keep raw pointers into them.
  std::vector<std::unique_ptr<obs::FlightRecorder>> flights_;
  LinkEventHook link_hook_;
};

}  // namespace vwire
