#include "vwire/chaos/fixtures.hpp"

#include <algorithm>
#include <stdexcept>

#include "vwire/rether/rether_layer.hpp"
#include "vwire/tcp/tcp_layer.hpp"
#include "vwire/udp/echo.hpp"

namespace vwire::chaos {

namespace {

/// Position-dependent payload byte: catches corruption, duplication and
/// reordering of delivered stream bytes, not just byte loss.
u8 pattern_byte(u64 offset) {
  return static_cast<u8>((offset * 131 + 7) & 0xff);
}

/// Window-limited TCP sender whose payload encodes each byte's stream
/// offset (BulkSender sends constant filler, which a corruption-to-filler
/// fault would slip past).
class PatternSender {
 public:
  PatternSender(tcp::TcpLayer& tcp, net::Ipv4Address dst, u16 dst_port,
                u16 src_port, u64 total)
      : tcp_(tcp), dst_(dst), dst_port_(dst_port), src_port_(src_port),
        total_(total) {}

  void start() {
    conn_ = tcp_.connect(dst_, dst_port_, src_port_);
    conn_->on_established = [this] { pump(); };
    conn_->on_send_space = [this] { pump(); };
  }

  u64 offered() const { return offered_; }

 private:
  void pump() {
    if (!conn_ || closed_) return;
    while (offered_ < total_) {
      const std::size_t want =
          static_cast<std::size_t>(std::min<u64>(total_ - offered_, 4096));
      Bytes chunk(want);
      for (std::size_t i = 0; i < want; ++i) {
        chunk[i] = pattern_byte(offered_ + i);
      }
      const std::size_t accepted = conn_->send(BytesView(chunk));
      offered_ += accepted;
      if (accepted < want) return;  // buffer full; on_send_space resumes
    }
    closed_ = true;
    conn_->close();
  }

  tcp::TcpLayer& tcp_;
  net::Ipv4Address dst_;
  u16 dst_port_;
  u16 src_port_;
  u64 total_;
  std::shared_ptr<tcp::TcpConnection> conn_;
  u64 offered_{0};
  bool closed_{false};
};

/// Accepting side: verifies every delivered byte against the pattern.
class PatternSink {
 public:
  PatternSink(tcp::TcpLayer& tcp, u16 port) {
    tcp.listen(port, [this](std::shared_ptr<tcp::TcpConnection> conn) {
      conn->on_data = [this](BytesView data) {
        for (u8 b : data) {
          if (b != pattern_byte(received_)) ++pattern_errors_;
          ++received_;
        }
      };
      auto weak = std::weak_ptr<tcp::TcpConnection>(conn);
      conn->on_peer_closed = [weak] {
        if (auto c = weak.lock()) c->close();
      };
    });
  }

  u64 received() const { return received_; }
  u64 pattern_errors() const { return pattern_errors_; }

 private:
  u64 received_{0};
  u64 pattern_errors_{0};
};

// --- fig7: TCP bulk transfer on the paper's Fig 7 topology ---------------

constexpr const char* kTcpFilters =
    "FILTER_TABLE\n"
    "  TCP_data: (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)\n"
    "  TCP_ack:  (34 2 0x4000), (36 2 0x6000), (47 1 0x10 0x10)\n"
    "END\n";

class Fig7Harness final : public TrialHarness {
 public:
  explicit Fig7Harness(const FixtureDescription& d) : TrialHarness(d) {
    tb_.add_node("ctl");
    tb_.add_node("node1");
    tb_.add_node("node2");
    tcp1_ = std::make_unique<tcp::TcpLayer>(tb_.node("node1"));
    tcp2_ = std::make_unique<tcp::TcpLayer>(tb_.node("node2"));
    sink_ = std::make_unique<PatternSink>(*tcp2_, 16384);
    sender_ = std::make_unique<PatternSender>(
        *tcp1_, tb_.node("node2").ip(), 16384, 24576, /*total=*/120'000);
  }

  Testbed& testbed() override { return tb_; }

  ScenarioSpec make_spec(const std::string& fault_rules) override {
    ScenarioSpec spec;
    spec.script = std::string(kTcpFilters) + tb_.node_table_fsl() +
                  "SCENARIO chaos_tcp\n"
                  "  CHAOS: (TCP_data, node1, node2, RECV)\n"
                  "  (TRUE) >> ENABLE_CNTR(CHAOS);\n" +
                  fault_rules + "END\n";
    spec.control_node = "ctl";
    spec.workload = [this] { sender_->start(); };
    spec.options.deadline = seconds(3);
    return spec;
  }

  void register_invariants(InvariantSet& inv) override {
    auto window_sanity = [this]() -> std::optional<std::string> {
      std::optional<std::string> first;
      auto visit = [&](const tcp::TcpConnection& c) {
        if (first) return;
        first = check_tcp_window_sanity(c.congestion().cwnd(),
                                        c.congestion().ssthresh(),
                                        c.congestion().params());
      };
      tcp1_->for_each_connection(visit);
      tcp2_->for_each_connection(visit);
      return first;
    };
    inv.add_probe("tcp-window-sanity", window_sanity);
    inv.add_final("tcp-window-sanity", window_sanity);
    inv.add_final("tcp-integrity", [this] {
      return check_tcp_integrity(sink_->pattern_errors());
    });
  }

  bool schedule_state_fault(const FaultEvent& e, ScenarioSpec& spec) override {
    if (e.state == StateFaultKind::kRllWindowCorrupt) {
      rll::RllLayer* rll = tb_.handles(e.node).rll;
      if (rll == nullptr) return false;
      spec.actions.push_back(
          {e.at, [rll, v = e.state_value] { rll->corrupt_recv_window(v); }});
      return true;
    }
    tcp::TcpLayer* tcp = e.node == "node1"   ? tcp1_.get()
                         : e.node == "node2" ? tcp2_.get()
                                             : nullptr;
    if (tcp == nullptr) return false;
    const StateFaultKind kind = e.state;
    const u32 v = e.state_value;
    switch (kind) {
      case StateFaultKind::kTcpCwndForce:
      case StateFaultKind::kTcpCwndFlip:
      case StateFaultKind::kTcpSsthreshForce:
        break;
      default:
        return false;
    }
    spec.actions.push_back({e.at, [tcp, kind, v] {
      tcp->for_each_connection_mut([kind, v](tcp::TcpConnection& c) {
        const tcp::CongestionParams& p = c.congestion().params();
        switch (kind) {
          case StateFaultKind::kTcpCwndForce:
            c.inject_congestion_state(std::max<u32>(v, 1), std::nullopt);
            break;
          case StateFaultKind::kTcpCwndFlip:
            c.inject_congestion_state(
                std::max<u32>(c.congestion().cwnd() ^ (1u << (v & 15)), 1),
                std::nullopt);
            break;
          case StateFaultKind::kTcpSsthreshForce:
            c.inject_congestion_state(std::nullopt,
                                      std::max(v, p.min_ssthresh));
            break;
          default:
            break;
        }
      });
    }});
    return true;
  }

 private:
  Testbed tb_;
  std::unique_ptr<tcp::TcpLayer> tcp1_, tcp2_;
  std::unique_ptr<PatternSink> sink_;
  std::unique_ptr<PatternSender> sender_;
};

// --- udp: echo request/response under fire -------------------------------

constexpr const char* kUdpFilters =
    "FILTER_TABLE\n"
    "  udp_req: (12 2 0x0800), (23 1 0x11), (34 2 0x9c40), (36 2 0x0007)\n"
    "END\n";

class UdpHarness : public TrialHarness {
 public:
  explicit UdpHarness(const FixtureDescription& d) : TrialHarness(d) {
    tb_.add_node("ctl");
    tb_.add_node("client");
    tb_.add_node("server");
    cu_ = std::make_unique<udp::UdpLayer>(tb_.node("client"));
    su_ = std::make_unique<udp::UdpLayer>(tb_.node("server"));
    server_ = std::make_unique<udp::EchoServer>(*su_, 7);
    udp::EchoClient::Params cp;
    cp.server_ip = tb_.node("server").ip();
    cp.server_port = 7;
    cp.local_port = 40000;  // 0x9c40: what the udp_req filter matches
    cp.count = 60;
    cp.interval = millis(5);
    client_ = std::make_unique<udp::EchoClient>(*cu_, cp);
  }

  Testbed& testbed() override { return tb_; }

  ScenarioSpec make_spec(const std::string& fault_rules) override {
    ScenarioSpec spec;
    spec.script = std::string(kUdpFilters) + tb_.node_table_fsl() +
                  "SCENARIO chaos_udp\n"
                  "  CHAOS: (udp_req, client, server, RECV)\n"
                  "  (TRUE) >> ENABLE_CNTR(CHAOS);\n" +
                  fault_rules + "END\n";
    spec.control_node = "ctl";
    spec.workload = [this] { client_->start(); };
    spec.options.deadline = seconds(2);
    return spec;
  }

  void register_invariants(InvariantSet&) override {
    // Echo offers no fixture invariant beyond the campaign-level set: a
    // DUP fault can legitimately hand the client more replies than probes.
  }

 private:
  Testbed tb_;
  std::unique_ptr<udp::UdpLayer> cu_, su_;
  std::unique_ptr<udp::EchoServer> server_;
  std::unique_ptr<udp::EchoClient> client_;
};

// --- deadsite: a broken-generator stand-in for pre-flight tests ----------
//
// Identical to UdpHarness except the scenario never enables the CHAOS
// counter, so every windowed provoking rule ((CHAOS >= a) && ...) with
// a >= 1 is provably unreachable — exactly the generator bug the
// verification pre-flight (campaign.cpp) exists to catch.  Deliberately
// absent from harness_names(): it is not a fixture anyone should sweep,
// only a test fixture for the pre-flight itself.
class DeadsiteHarness final : public UdpHarness {
 public:
  using UdpHarness::UdpHarness;

  ScenarioSpec make_spec(const std::string& fault_rules) override {
    ScenarioSpec spec = UdpHarness::make_spec(fault_rules);
    const std::string enable = "  (TRUE) >> ENABLE_CNTR(CHAOS);\n";
    const std::size_t pos = spec.script.find(enable);
    if (pos != std::string::npos) spec.script.erase(pos, enable.size());
    return spec;
  }
};

// --- rether: token ring under crashes and token loss ---------------------

constexpr const char* kRetherFilters =
    "FILTER_TABLE\n"
    "  tr_token: (12 2 0x9900), (14 2 0x0001)\n"
    "END\n";

class RetherHarness final : public TrialHarness {
 public:
  explicit RetherHarness(const FixtureDescription& d) : TrialHarness(d) {
    tb_.add_node("ctl");
    const char* members[] = {"r1", "r2", "r3"};
    for (const char* n : members) tb_.add_node(n);
    std::vector<net::MacAddress> ring;
    for (const char* n : members) ring.push_back(tb_.node(n).mac());
    rether::RetherParams rp;
    rp.regen_timeout = millis(150);  // regenerate within the short trial
    for (const char* n : members) {
      auto layer =
          std::make_unique<rether::RetherLayer>(tb_.simulator(), rp, ring);
      layers_.push_back(static_cast<rether::RetherLayer*>(
          &tb_.node(n).add_layer(std::move(layer))));
      nodes_.push_back(&tb_.node(n));
    }
  }

  Testbed& testbed() override { return tb_; }

  ScenarioSpec make_spec(const std::string& fault_rules) override {
    ScenarioSpec spec;
    spec.script = std::string(kRetherFilters) + tb_.node_table_fsl() +
                  "SCENARIO chaos_rether\n"
                  "  CHAOS: (tr_token, r1, r2, RECV)\n"
                  "  (TRUE) >> ENABLE_CNTR(CHAOS);\n" +
                  fault_rules + "END\n";
    spec.control_node = "ctl";
    spec.workload = [this] {
      for (std::size_t i = 0; i < layers_.size(); ++i) {
        layers_[i]->start(/*with_token=*/i == 0);
      }
    };
    // The token circulates forever; the deadline is the trial length.
    spec.options.deadline = millis(800);
    return spec;
  }

  void register_invariants(InvariantSet& inv) override {
    inv.add_probe("rether-single-token", [this] {
      // Uniqueness is about the *operational* token.  A crashed node, or a
      // falsely-evicted member clutching a stale token, still has
      // holding_token() set — but its sends are dropped unacknowledged by
      // everyone (stale sequence), so it cannot duplicate ring traffic.
      // Count live holders of the maximum sequence only.
      u32 max_seq = 0;
      for (std::size_t i = 0; i < layers_.size(); ++i) {
        if (nodes_[i]->failed() || !layers_[i]->holding_token()) continue;
        max_seq = std::max(max_seq, layers_[i]->token_seq());
      }
      std::size_t holders = 0;
      for (std::size_t i = 0; i < layers_.size(); ++i) {
        if (nodes_[i]->failed() || !layers_[i]->holding_token()) continue;
        if (layers_[i]->token_seq() == max_seq) ++holders;
      }
      return check_token_holders(holders);
    });
    inv.add_final("rether-liveness", [this] {
      u64 received = 0;
      for (const rether::RetherLayer* l : layers_) {
        received += l->stats().tokens_received;
      }
      return check_rether_liveness(received, layers_.size());
    });
  }

  void quiesce() override {
    for (rether::RetherLayer* l : layers_) l->stop();
  }

  // Token forgery exists to *provoke* the single-token violation, so it is
  // never in the generated space (state_fault_kinds stays empty) — only
  // directed schedules (regression repros, invariant tests) reach it.
  bool schedule_state_fault(const FaultEvent& e, ScenarioSpec& spec) override {
    if (e.state != StateFaultKind::kForgeTokenSeq &&
        e.state != StateFaultKind::kDupTokenSeq) {
      return false;
    }
    rether::RetherLayer* layer = nullptr;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      if (nodes_[i]->name() == e.node) layer = layers_[i];
    }
    if (layer == nullptr) return false;
    const u32 ahead =
        e.state == StateFaultKind::kDupTokenSeq ? 0 : e.state_value;
    spec.actions.push_back(
        {e.at, [layer, ahead] { layer->inject_forged_token(ahead); }});
    return true;
  }

 private:
  Testbed tb_;
  std::vector<rether::RetherLayer*> layers_;
  std::vector<host::Node*> nodes_;
};

// --- hang: a trial that never finishes (watchdog test fixture) -----------

constexpr const char* kHangFilters =
    "FILTER_TABLE\n"
    "  hang_f: (12 2 0x0800), (23 1 0x11)\n"
    "END\n";

/// A workload that wedges the run in *wall-clock* terms: a self-rearming
/// 100ns timer floods the event queue (10k events per 1ms supervision
/// window), the scenario's simulated deadline is minutes away, and
/// quiescence detection never triggers because the timer always has an
/// event pending.  Only the per-trial watchdog (CampaignConfig::
/// trial_timeout_ms) — or ctest's own timeout — ends such a trial.  Exists
/// for the watchdog/service tests; harmless but pointless elsewhere.
class HangHarness final : public TrialHarness {
 public:
  explicit HangHarness(const FixtureDescription& d) : TrialHarness(d) {
    tb_.add_node("ctl");
    tb_.add_node("a");
    tb_.add_node("b");
  }

  Testbed& testbed() override { return tb_; }

  ScenarioSpec make_spec(const std::string& fault_rules) override {
    ScenarioSpec spec;
    spec.script = std::string(kHangFilters) + tb_.node_table_fsl() +
                  "SCENARIO chaos_hang\n"
                  "  CHAOS: (hang_f, a, b, RECV)\n"
                  "  (TRUE) >> ENABLE_CNTR(CHAOS);\n" +
                  fault_rules + "END\n";
    spec.control_node = "ctl";
    spec.workload = [this] {
      sim::Simulator& sim = tb_.simulator();
      sim.after(nanos(100), HangTick{live_, ticks_, &sim});
    };
    // Minutes of simulated time at 10M events per simulated second: hours
    // of wall clock if nothing cuts the trial short.
    spec.options.deadline = seconds(120);
    return spec;
  }

  void register_invariants(InvariantSet&) override {}

  void quiesce() override { *live_ = false; }

 private:
  struct HangTick {
    std::shared_ptr<bool> live;
    std::shared_ptr<u64> ticks;
    sim::Simulator* sim;
    void operator()() const {
      if (!*live) return;
      ++*ticks;
      sim->after(nanos(100), *this);
    }
  };

  Testbed tb_;
  std::shared_ptr<bool> live_{std::make_shared<bool>(true)};
  std::shared_ptr<u64> ticks_{std::make_shared<u64>(0)};
};

// --- the registry ----------------------------------------------------------

template <typename Harness>
std::unique_ptr<TrialHarness> build_harness(const FixtureDescription& d,
                                            u64 /*trial_seed*/) {
  return std::make_unique<Harness>(d);
}

template <typename Harness>
FixtureDescription describe(std::string name, FslSite site,
                            ScheduleTemplate schedule,
                            std::vector<StateFaultKind> state_kinds = {}) {
  FixtureDescription d;
  d.name = std::move(name);
  d.fsl_site = std::move(site);
  d.schedule = std::move(schedule);
  d.state_fault_kinds = std::move(state_kinds);
  d.schedule_with_state_faults = d.schedule;
  ScheduleTemplate& wide = d.schedule_with_state_faults;
  wide.state_kinds = d.state_fault_kinds;
  if (!wide.state_kinds.empty() &&
      std::find(wide.allowed.begin(), wide.allowed.end(),
                FaultKind::kStateFault) == wide.allowed.end()) {
    wide.allowed.push_back(FaultKind::kStateFault);
  }
  d.build = &build_harness<Harness>;
  return d;
}

std::vector<FixtureDescription> make_descriptions() {
  std::vector<FixtureDescription> out;

  ScheduleTemplate fig7;
  fig7.allowed = {FaultKind::kCrash,    FaultKind::kLinkCut,
                  FaultKind::kLinkFlap, FaultKind::kLinkDegrade,
                  FaultKind::kFslDrop,  FaultKind::kFslDelay,
                  FaultKind::kFslDup,   FaultKind::kFslModify};
  fig7.targets = {"node1", "node2"};
  fig7.horizon = millis(250);
  fig7.max_packet_index = 80;  // ~83 MSS segments in the 120 kB transfer
  // Only the recoverable corruptions: Fig7Harness::schedule_state_fault
  // clamps injected values into the window-sanity envelope, so byzantine
  // campaigns stay violation-free (the invariant watches the *protocol*
  // driving state out of bounds afterwards).  kRllWindowCorrupt is
  // materializable too but only via directed schedules — it exists to
  // break exactly-once.
  out.push_back(describe<Fig7Harness>(
      "fig7", {"TCP_data", "node1", "node2", "CHAOS"}, std::move(fig7),
      {StateFaultKind::kTcpCwndForce, StateFaultKind::kTcpCwndFlip,
       StateFaultKind::kTcpSsthreshForce}));

  ScheduleTemplate udp;
  udp.allowed = {FaultKind::kCrash,    FaultKind::kLinkCut,
                 FaultKind::kLinkFlap, FaultKind::kLinkDegrade,
                 FaultKind::kFslDrop,  FaultKind::kFslDelay,
                 FaultKind::kFslDup};
  udp.targets = {"client", "server"};
  udp.horizon = millis(250);
  udp.max_packet_index = 50;  // the client sends 60 probes
  const FslSite udp_site{"udp_req", "client", "server", "CHAOS"};
  out.push_back(describe<UdpHarness>("udp", udp_site, udp));

  ScheduleTemplate rether;
  rether.allowed = {FaultKind::kCrash, FaultKind::kLinkCut,
                    FaultKind::kLinkFlap, FaultKind::kFslDrop};
  rether.targets = {"r2", "r3"};
  rether.horizon = millis(400);
  // Every fault heals: a permanently-dead majority would leave a
  // single-member ring, which is vacuous rather than interesting.
  rether.permanent_chance = 0.0;
  rether.max_packet_index = 200;
  out.push_back(describe<RetherHarness>(
      "rether", {"tr_token", "r1", "r2", "CHAOS"}, std::move(rether)));

  ScheduleTemplate hang;
  hang.allowed = {};  // the hang is the workload's doing, not a fault's
  hang.targets = {"a", "b"};
  out.push_back(describe<HangHarness>("hang", {"hang_f", "a", "b", "CHAOS"},
                                      std::move(hang)));

  // Test-only: a deliberately broken generator site for the verification
  // pre-flight.  Not listed in harness_names() so sweeps skip it.
  out.push_back(describe<DeadsiteHarness>("deadsite", udp_site, udp));
  return out;
}

}  // namespace

const FixtureDescription& describe_fixture(std::string_view name) {
  // Built on first use (thread-safe static initialization), never mutated
  // afterwards: concurrent campaign workers only read it.
  static const std::vector<FixtureDescription> descriptions =
      make_descriptions();
  for (const FixtureDescription& d : descriptions) {
    if (d.name == name) return d;
  }
  throw std::invalid_argument("chaos: unknown fixture '" + std::string(name) +
                              "' (have: fig7, udp, rether, hang, deadsite)");
}

std::unique_ptr<TrialHarness> make_harness(std::string_view name,
                                           u64 trial_seed) {
  const FixtureDescription& d = describe_fixture(name);
  return d.build(d, trial_seed);
}

std::vector<std::string> harness_names() {
  return {"fig7", "udp", "rether", "hang"};
}

}  // namespace vwire::chaos
