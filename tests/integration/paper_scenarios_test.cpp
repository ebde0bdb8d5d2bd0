// The paper's two published case studies (§6.1 Fig 5 and §6.2 Fig 6) run
// end-to-end as tests: the protocols under test are the real TCP and
// Rether implementations, the analysis is the script, and the verdicts
// must match the paper's.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "vwire/core/api/scenario_runner.hpp"
#include "vwire/rether/rether_layer.hpp"
#include "vwire/tcp/apps.hpp"

namespace vwire {
namespace {

/// Every explain(rule) answer of a run, rendered field by field and hashed
/// (FNV-1a).  Pins the firing records' bytes — time, node, action, cascade
/// depth, outcome and the counter/term snapshots — so a refactor of the
/// rule engine must reproduce them exactly.  A deliberate behaviour change
/// regenerates the value (the failure message prints it).
std::string explain_digest(const control::ScenarioResult& r) {
  std::set<u16> rules;
  for (const auto& rec : r.firings) rules.insert(rec.rule);
  std::string text;
  char line[160];
  for (u16 rule : rules) {
    for (const obs::FiringRecord& f : r.explain(rule)) {
      std::snprintf(line, sizeof line,
                    "%lld %s r%u a%u %s d%u f%u u%llu %lld %lld",
                    static_cast<long long>(f.at.ns), f.node_name.c_str(),
                    f.rule, f.action, f.kind_name, f.cascade_depth, f.filter,
                    static_cast<unsigned long long>(f.packet_uid),
                    static_cast<long long>(f.value),
                    static_cast<long long>(f.value2));
      text += line;
      for (u8 i = 0; i < f.n_counters; ++i) {
        text += " c" + std::to_string(f.counters[i].id) + "=" +
                std::to_string(f.counters[i].value);
      }
      for (u8 i = 0; i < f.n_terms; ++i) {
        text += " t" + std::to_string(f.terms[i].id) + "=" +
                (f.terms[i].state ? "1" : "0");
      }
      text += '\n';
    }
  }
  u64 h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  std::snprintf(line, sizeof line, "%016llx",
                static_cast<unsigned long long>(h));
  return line;
}

constexpr const char* kTcpFilters =
    "FILTER_TABLE\n"
    "  TCP_syn:    (34 2 0x6000), (36 2 0x4000), (47 1 0x02 0x02)\n"
    "  TCP_synack: (34 2 0x4000), (36 2 0x6000), (47 1 0x12 0x12)\n"
    "  TCP_data:   (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)\n"
    "  TCP_ack:    (34 2 0x4000), (36 2 0x6000), (47 1 0x10 0x10)\n"
    "END\n";

std::string fig5_scenario(bool with_synack_drop) {
  std::string fault = with_synack_drop
                          ? "  ((SYNACK > 0) && (SYNACK < 2)) >>\n"
                            "      DROP TCP_synack, node2, node1, RECV;\n"
                          : "";
  return
      "SCENARIO TCP_SS_CA_algo\n"
      "  SYNACK:   (TCP_synack, node2, node1, RECV)\n"
      "  SA_ACK:   (TCP_data, node1, node2, SEND)\n"
      "  DATA:     (TCP_data, node1, node2, SEND)\n"
      "  ACK:      (TCP_ack, node2, node1, RECV)\n"
      "  TOT_ACK:  (TCP_ack, node2, node1, RECV)\n"
      "  CWND:     (node1)\n  CanTx: (node1)\n"
      "  CCNT:     (node1)\n  SSTHRESH: (node1)\n"
      "  (TRUE) >> ENABLE_CNTR(SYNACK); ENABLE_CNTR(SA_ACK);\n"
      "      ENABLE_CNTR(ACK); ENABLE_CNTR(TOT_ACK);\n"
      "      ASSIGN_CNTR(CWND, 1); ASSIGN_CNTR(CanTx, 1);\n"
      "      ENABLE_CNTR(CCNT); ASSIGN_CNTR(SSTHRESH, " +
      std::string(with_synack_drop ? "2" : "44") + ");\n" + fault +
      "  ((SA_ACK = 1)) >> ENABLE_CNTR(DATA); DISABLE_CNTR(SA_ACK);\n"
      "  ((DATA = 1)) >> RESET_CNTR(DATA); DECR_CNTR(CanTx, 1);\n"
      "  ((CWND <= SSTHRESH) && (ACK = 1)) >> RESET_CNTR(ACK);\n"
      "      INCR_CNTR(CWND, 1); INCR_CNTR(CanTx, 2);\n"
      "  ((CWND > SSTHRESH) && (ACK = 1)) >> RESET_CNTR(ACK);\n"
      "      INCR_CNTR(CanTx, 1); INCR_CNTR(CCNT, 1);\n"
      "  ((CWND > SSTHRESH) && (CCNT > CWND)) >> RESET_CNTR(CCNT);\n"
      "      INCR_CNTR(CWND, 1); INCR_CNTR(CanTx, 1);\n"
      "  ((CanTx < 0)) >> FLAG_ERROR;\n"
      "  ((TOT_ACK = 120)) >> STOP;\n"
      "END\n";
}

struct Fig5Fixture {
  Testbed tb;
  std::unique_ptr<tcp::TcpLayer> tcp1, tcp2;
  std::unique_ptr<tcp::BulkSink> sink;
  std::unique_ptr<tcp::BulkSender> sender;

  Fig5Fixture() {
    tb.add_node("node1");
    tb.add_node("node2");
    tcp1 = std::make_unique<tcp::TcpLayer>(tb.node("node1"));
    tcp2 = std::make_unique<tcp::TcpLayer>(tb.node("node2"));
    sink = std::make_unique<tcp::BulkSink>(*tcp2, 16384);
    tcp::BulkSender::Params sp;
    sp.dst_ip = tb.node("node2").ip();
    sp.dst_port = 16384;
    sp.src_port = 24576;
    sp.total_bytes = 0;
    sender = std::make_unique<tcp::BulkSender>(*tcp1, sp);
  }

  control::ScenarioResult run(bool with_drop) {
    ScenarioRunner runner(tb);
    ScenarioSpec spec;
    spec.script = std::string(kTcpFilters) + tb.node_table_fsl() +
                  fig5_scenario(with_drop);
    spec.workload = [this] { sender->start(); };
    spec.options.deadline = seconds(20);
    return runner.run(spec);
  }
};

TEST(PaperFig5, CorrectTcpPassesWithInjectedSynackDrop) {
  Fig5Fixture f;
  auto r = f.run(true);
  EXPECT_TRUE(r.passed()) << r.summary();
  EXPECT_TRUE(r.stopped);
  // The scripted model of the window agrees with the implementation.
  auto conn = f.sender->connection();
  EXPECT_EQ(r.counters.at("CWND"), static_cast<i64>(conn->congestion().cwnd()));
  EXPECT_EQ(r.counters.at("SSTHRESH"), 2);
  EXPECT_FALSE(conn->congestion().in_slow_start());
  EXPECT_EQ(conn->stats().syn_retransmits, 1u);
  EXPECT_GE(r.counters.at("CanTx"), 0);

  // Telemetry acceptance (DESIGN.md §7): every action the engines executed
  // left a FiringRecord, and explain() resolves each fired rule.
  u64 executed = 0;
  for (const char* n : {"node1", "node2"}) {
    executed += f.tb.handles(n).engine->stats().actions_executed;
  }
  EXPECT_EQ(r.firings_dropped, 0u);
  EXPECT_EQ(r.firings.size(), executed);
  for (const auto& rec : r.firings) {
    EXPECT_FALSE(r.explain(rec.rule).empty());
  }
  // The injected fault: rule 1 is the SYNACK drop, and its provenance
  // carries the counter state that triggered it (0 < SYNACK < 2).
  auto drops = r.explain(1);
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(std::string(drops[0].kind_name), "DROP");
  EXPECT_EQ(drops[0].node_name, "node1");
  EXPECT_NE(drops[0].packet_uid, 0u);
  ASSERT_GE(drops[0].n_counters, 1);
  EXPECT_EQ(drops[0].counters[0].value, 1);  // SYNACK at evaluation

  EXPECT_EQ(explain_digest(r), "026bee66b890841c");
}

TEST(PaperFig5, CleanHandshakeStaysInSlowStartLonger) {
  // Without the fault the connection keeps ssthresh at 44 and the whole
  // 120-ack run stays in slow start — the same script verifies that too.
  Fig5Fixture f;
  auto r = f.run(false);
  EXPECT_TRUE(r.passed()) << r.summary();
  auto conn = f.sender->connection();
  EXPECT_EQ(conn->stats().syn_retransmits, 0u);
  EXPECT_EQ(r.counters.at("CWND"), static_cast<i64>(conn->congestion().cwnd()));
}

constexpr const char* kRetherFilters =
    "FILTER_TABLE\n"
    "  tr_token:     (12 2 0x9900), (14 2 0x0001)\n"
    "  tr_token_ack: (12 2 0x9900), (14 2 0x0010)\n"
    "  TCP_data:     (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)\n"
    "END\n";

constexpr const char* kFig6Scenario =
    "SCENARIO Test_Single_Node_Failure 1sec\n"
    "  CNT_DATA:    (TCP_data, node1, node4, RECV)\n"
    "  TokensTo2:   (tr_token, node1, node2, RECV)\n"
    "  TokensFrom2: (tr_token, node2, node3, SEND)\n"
    "  TokensTo4:   (tr_token, node2, node4, RECV)\n"
    "  TokensTo1:   (tr_token, node4, node1, RECV)\n"
    "  (TRUE) >> ENABLE_CNTR( CNT_DATA );\n"
    "  ((CNT_DATA > 1000)) >> ENABLE_CNTR( TokensTo2 );\n"
    "  ((TokensTo2 = 1)) >> FAIL( node3 );\n"
    "      ENABLE_CNTR( TokensFrom2 ); RESET_CNTR( TokensTo2 );\n"
    "  ((TokensFrom2 = 3)) >> ENABLE_CNTR( TokensTo4 );\n"
    "  ((TokensTo4 = 1)) >> ENABLE_CNTR( TokensTo1 );\n"
    "  ((TokensFrom2 > 3)) >> FLAG_ERROR;\n"
    "  ((TokensTo2 = 1) && (TokensTo4 = 1) && (TokensTo1 = 1)) >> STOP;\n"
    "END\n";

TEST(PaperFig6, RetherRecoversWithinOneSecond) {
  TestbedConfig cfg;
  cfg.medium = TestbedConfig::MediumKind::kSharedBus;
  Testbed tb(cfg);
  const char* names[] = {"node1", "node2", "node3", "node4"};
  std::vector<net::MacAddress> ring;
  for (const char* n : names) {
    tb.add_node(n);
    ring.push_back(tb.node(n).mac());
  }
  std::vector<rether::RetherLayer*> layers;
  for (const char* n : names) {
    layers.push_back(static_cast<rether::RetherLayer*>(
        &tb.node(n).add_layer(std::make_unique<rether::RetherLayer>(
            tb.simulator(), rether::RetherParams{}, ring))));
  }
  tcp::TcpLayer tcp1(tb.node("node1"));
  tcp::TcpLayer tcp4(tb.node("node4"));
  tcp::BulkSink sink(tcp4, 16384);
  tcp::BulkSender::Params sp;
  sp.dst_ip = tb.node("node4").ip();
  sp.dst_port = 16384;
  sp.src_port = 24576;
  sp.total_bytes = 0;
  tcp::BulkSender sender(tcp1, sp);

  ScenarioRunner runner(tb);
  ScenarioSpec spec;
  spec.script = std::string(kRetherFilters) + tb.node_table_fsl() +
                kFig6Scenario;
  spec.workload = [&] {
    for (std::size_t i = 0; i < layers.size(); ++i) layers[i]->start(i == 0);
    sender.start();
  };
  spec.options.deadline = seconds(60);
  auto r = runner.run(spec);

  EXPECT_TRUE(r.passed()) << r.summary();
  EXPECT_TRUE(r.stopped);
  EXPECT_EQ(r.counters.at("TokensFrom2"), 3);
  EXPECT_GT(r.counters.at("CNT_DATA"), 1000);
  EXPECT_EQ(layers[1]->stats().nodes_evicted, 1u);
  EXPECT_EQ(layers[1]->ring().size(), 3u);
  EXPECT_FALSE(layers[1]->ring().contains(tb.node("node3").mac()));
  // TCP service survived the failure: bytes kept arriving at node4.
  EXPECT_GT(sink.bytes_received(), 1'400'000u);

  // Telemetry acceptance (DESIGN.md §7): one FiringRecord per executed
  // action across the four engines, each fired rule explainable — including
  // the FAIL(node3) injection (rule 2).
  u64 executed = 0;
  for (const char* n : names) {
    executed += tb.handles(n).engine->stats().actions_executed;
  }
  EXPECT_EQ(r.firings_dropped, 0u);
  EXPECT_EQ(r.firings.size(), executed);
  for (const auto& rec : r.firings) {
    EXPECT_FALSE(r.explain(rec.rule).empty());
  }
  bool saw_fail = false;
  for (const auto& rec : r.explain(2)) {
    if (std::string(rec.kind_name) == "FAIL") saw_fail = true;
  }
  EXPECT_TRUE(saw_fail);

  EXPECT_EQ(explain_digest(r), "389549a645e3c29f");
}

}  // namespace
}  // namespace vwire
