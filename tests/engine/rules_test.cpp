// One rule-semantics core: the live engines and the offline analyzer run the
// same RuleMachine, so a script run live and then replayed offline over the
// trace that run recorded must reach the same counters, FLAG_ERRORs and
// STOP.  Includes the regressions for deep condition programs and for many
// event counters watching one filter and flow.
#include "vwire/core/engine/rules.hpp"

#include <gtest/gtest.h>

#include <map>

#include "engine_test_util.hpp"
#include "vwire/core/analysis/offline.hpp"
#include "vwire/core/gen/script_gen.hpp"

namespace vwire::core {
namespace {

using core::testing::EngineHarness;
using core::testing::kUdpFilters;

/// A right-nested condition with `depth` + 1 operands that holds exactly
/// when REQ = 3.  Right nesting keeps every operand on the evaluation stack
/// until the innermost one is read, so the stack grows to depth + 1.
std::string nested_condition(int depth) {
  std::string inner = "(REQ < 1000)";
  for (int i = depth - 1; i >= 1; --i) {
    // (false || x) and (true && x) both equal x.
    inner = i % 2 == 1
                ? "((REQ > " + std::to_string(5000 + i) + ") || " + inner + ")"
                : "((REQ < " + std::to_string(2000 + i) + ") && " + inner + ")";
  }
  return "((REQ = 3) && " + inner + ")";
}

std::string deep_scenario() {
  return "SCENARIO deep\n"
         "  REQ: (udp_req, client, server, RECV)\n"
         "  HITS: (server)\n"
         "  (TRUE) >> ENABLE_CNTR(REQ);\n"
         "  " + nested_condition(40) + " >> INCR_CNTR(HITS, 1);\n"
         "END\n";
}

constexpr int kWideCounters = 20;

/// kWideCounters event counters on one filter, flow and direction.
std::string wide_scenario() {
  std::string decl, enable;
  for (int i = 0; i < kWideCounters; ++i) {
    const std::string c = "C" + std::to_string(i);
    decl += "  " + c + ": (udp_req, client, server, RECV)\n";
    enable += " ENABLE_CNTR(" + c + ");";
  }
  return "SCENARIO wide\n" + decl + "  (TRUE) >>" + enable + "\nEND\n";
}

TEST(RuleMachine, DeepNestedConditionEvaluatesLiveAndOffline) {
  EngineHarness h;
  h.arm(deep_scenario());
  std::size_t longest = 0;
  for (const CondEntry& c : h.tables.conditions.entries) {
    longest = std::max(longest, c.postfix.size());
  }
  ASSERT_GE(longest, 81u);  // 41 operands + 40 operators
  h.send_requests(5);
  h.run_for(millis(100));
  EXPECT_EQ(h.counter("REQ"), 5);
  EXPECT_EQ(h.counter("HITS"), 1);  // rose once, at REQ = 3

  OfflineResult off = OfflineAnalyzer(h.tables).analyze(h.tb->trace());
  EXPECT_EQ(off.counters.at("REQ"), 5);
  EXPECT_EQ(off.counters.at("HITS"), 1);
}

TEST(RuleMachine, EveryCounterOnOneFilterCountsLiveAndOffline) {
  EngineHarness h;
  h.arm(wide_scenario());
  h.send_requests(5);
  h.run_for(millis(100));
  OfflineResult off = OfflineAnalyzer(h.tables).analyze(h.tb->trace());
  for (int i = 0; i < kWideCounters; ++i) {
    const std::string c = "C" + std::to_string(i);
    EXPECT_EQ(h.counter(c), 5) << c << " live";
    EXPECT_EQ(off.counters.at(c), 5) << c << " offline";
  }
}

// --- live vs offline differential --------------------------------------------

constexpr const char* kGenFilters =
    "FILTER_TABLE\n"
    "  req: (12 2 0x0800), (23 1 0x11), (34 2 0x9c40), (36 2 0x0007)\n"
    "  rsp: (12 2 0x0800), (23 1 0x11), (34 2 0x0007), (36 2 0x9c40)\n"
    "END\n";

struct Outcome {
  std::map<std::string, i64> counters;
  std::size_t flag_errors{0};
  bool stopped{false};
};

/// Client/server UDP echo testbed.
struct EchoBed {
  Testbed tb;
  std::unique_ptr<udp::UdpLayer> cu, su;

  EchoBed() {
    tb.add_node("client");
    tb.add_node("server");
    cu = std::make_unique<udp::UdpLayer>(tb.node("client"));
    su = std::make_unique<udp::UdpLayer>(tb.node("server"));
    su->bind(7, [this](net::Ipv4Address src, u16 sport, BytesView payload) {
      su->send(src, sport, 7, payload);
    });
  }

  void request() { cu->send(tb.node("server").ip(), 7, 40000, Bytes(16, 0)); }

  /// `rounds` strict request/response exchanges, then `extra` unsolicited
  /// requests `gap` apart.
  std::function<void()> workload(int rounds, int extra, Duration gap) {
    return [this, rounds, extra, gap] {
      auto remaining = std::make_shared<int>(rounds);
      cu->bind(40000, [this, remaining](net::Ipv4Address, u16, BytesView) {
        if (--*remaining > 0) request();
      });
      if (rounds > 0) request();
      for (int i = 0; i < extra; ++i) {
        tb.simulator().after(Duration{gap.ns * (i + 1)},
                             [this] { request(); });
      }
    };
  }

  /// Runs `scenario` live, then offline over the trace the live run left.
  std::pair<Outcome, Outcome> run_both(const std::string& filters,
                                       const std::string& scenario,
                                       std::function<void()> workload) {
    const std::string script = filters + tb.node_table_fsl() + scenario;
    ScenarioRunner runner(tb);
    ScenarioSpec spec;
    spec.script = script;
    spec.workload = std::move(workload);
    spec.options.deadline = seconds(5);
    // A live STOP ends the run at the supervisor's next tick, and traffic
    // inside that tick still counts; offline replay ends at the STOP record.
    // A 1 µs tick makes both end at the STOP, so what is compared is the
    // rule semantics.  (At the default 1 ms tick the last load below reads
    // VISITS 8 live against 3 offline.)
    spec.options.poll = micros(1);
    control::ScenarioResult r = runner.run(spec);
    // The capture tap sits below the engine: a frame the engine counted on
    // its send path reaches the trace only after the engine's processing
    // cost.  Let such frames land before replaying the trace.
    tb.simulator().run_until(tb.simulator().now() + millis(1));

    Outcome live;
    live.counters.insert(r.counters.begin(), r.counters.end());
    for (const ScenarioError& e : r.errors) {
      if (e.cond != kInvalidId) ++live.flag_errors;  // not the timeout
    }
    live.stopped = r.stopped;

    OfflineResult o = OfflineAnalyzer(fsl::compile_script(script))
                          .analyze(tb.trace());
    Outcome off;
    off.counters.insert(o.counters.begin(), o.counters.end());
    off.flag_errors = o.errors.size();
    off.stopped = o.stopped;
    return {live, off};
  }
};

void expect_same(const Outcome& live, const Outcome& off,
                 const std::string& what) {
  EXPECT_EQ(live.counters, off.counters) << what;
  EXPECT_EQ(live.flag_errors, off.flag_errors) << what;
  EXPECT_EQ(live.stopped, off.stopped) << what;
}

/// The specs of the script-generator test and the spec_driven example.
std::vector<gen::ProtocolSpec> specs() {
  const gen::PacketEvent req{"req", "client", "server", net::Direction::kRecv};
  const gen::PacketEvent rsp{"rsp", "server", "client", net::Direction::kSend};
  std::vector<gen::ProtocolSpec> out;
  for (int rounds : {1, 2, 3}) {
    gen::ProtocolSpec echo;
    echo.name = "echo";
    echo.monitor_node = "server";
    echo.states = {"IDLE", "WAIT"};
    echo.initial_state = "IDLE";
    echo.accept_state = "IDLE";
    echo.accept_visits = rounds;
    echo.deadline = seconds(2);
    echo.transitions = {{"IDLE", "WAIT", req}, {"WAIT", "IDLE", rsp}};
    out.push_back(echo);
  }
  gen::ProtocolSpec pingpong = out.back();
  pingpong.name = "pingpong";
  pingpong.deadline = seconds(3);
  out.push_back(pingpong);
  return out;
}

TEST(LiveVsOffline, GeneratedAnalysisScriptsAgree) {
  struct Load {
    int rounds, extra;
    Duration gap;
  };
  // Conforming runs, runs that stop short of acceptance, and clients that
  // violate the FSM with unsolicited requests (FLAG_ERRORs).
  const Load loads[] = {{3, 0, millis(1)}, {1, 0, millis(1)},
                        {0, 2, millis(0)}, {2, 3, millis(3)},
                        {5, 4, micros(50)}};
  int checked = 0, stopped = 0, flagged = 0, quiet = 0;
  for (const gen::ProtocolSpec& spec : specs()) {
    ASSERT_TRUE(gen::validate(spec).empty()) << gen::validate(spec);
    const std::string scenario = gen::generate_analysis_scenario(spec);
    for (const Load& l : loads) {
      EchoBed bed;
      auto [live, off] = bed.run_both(kGenFilters, scenario,
                                      bed.workload(l.rounds, l.extra, l.gap));
      expect_same(live, off,
                  spec.name + "/" + std::to_string(spec.accept_visits) +
                      " rounds=" + std::to_string(l.rounds) +
                      " extra=" + std::to_string(l.extra));
      ++checked;
      stopped += live.stopped ? 1 : 0;
      flagged += live.flag_errors > 0 ? 1 : 0;
      quiet += !live.stopped && live.flag_errors == 0 ? 1 : 0;
    }
  }
  EXPECT_EQ(checked, 20);
  // The loads reach every verdict: STOPs, FLAG_ERRORs and neither.
  EXPECT_GT(stopped, 0);
  EXPECT_GT(flagged, 0);
  EXPECT_GT(quiet, 0);
}

TEST(LiveVsOffline, RegressionScriptsAgree) {
  {
    EchoBed bed;
    auto [live, off] = bed.run_both(kUdpFilters, deep_scenario(),
                                    bed.workload(0, 5, millis(2)));
    expect_same(live, off, "deep");
    EXPECT_EQ(live.counters.at("HITS"), 1);
  }
  {
    EchoBed bed;
    auto [live, off] = bed.run_both(kUdpFilters, wide_scenario(),
                                    bed.workload(0, 5, millis(2)));
    expect_same(live, off, "wide");
    EXPECT_EQ(live.counters.at("C" + std::to_string(kWideCounters - 1)), 5);
  }
}

}  // namespace
}  // namespace vwire::core
