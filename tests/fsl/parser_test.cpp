#include "vwire/core/fsl/parser.hpp"

#include <gtest/gtest.h>

namespace vwire::fsl {
namespace {

// The paper's Fig 2 filter and node tables, verbatim (with the 0010
// corrected to its evident hex meaning in the Fig 6 listing).
constexpr const char* kFig2 = R"(
VAR SeqNoData, SeqNoAck;
FILTER_TABLE
TCP_data_rt1: (34 2 0x6000), (36 2 0x4000), (38 4 SeqNoData), (47 1 0x10 0x10)
TCP_ack_rt1: (34 2 0x4000), (36 2 0x6000), (42 4 SeqNoAck), (47 1 0x10 0x10)
TCP_syn: (34 2 0x6000), (36 2 0x4000), (47 1 0x02 0x02)
TCP_synack: (34 2 0x4000), (36 2 0x6000), (47 1 0x12 0x12)
TCP_data: (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)
TCP_ack: (34 2 0x4000), (36 2 0x6000), (47 1 0x10 0x10)
END
NODE_TABLE
node0 00:46:61:af:fe:23 192.168.1.1
node1 00:23:31:df:af:12 192.168.1.2
END
)";

TEST(Parser, Fig2FilterAndNodeTables) {
  AstScript s = parse_script(kFig2);
  EXPECT_EQ(s.vars, (std::vector<std::string>{"SeqNoData", "SeqNoAck"}));
  ASSERT_EQ(s.filters.size(), 6u);
  EXPECT_EQ(s.filters[0].name, "TCP_data_rt1");
  ASSERT_EQ(s.filters[0].tuples.size(), 4u);
  // Tuple forms: (off len pattern), (off len VAR), (off len mask pattern).
  EXPECT_EQ(s.filters[0].tuples[0].offset, 34);
  EXPECT_EQ(s.filters[0].tuples[0].pattern, 0x6000u);
  EXPECT_FALSE(s.filters[0].tuples[0].mask);
  EXPECT_EQ(s.filters[0].tuples[2].var, "SeqNoData");
  EXPECT_EQ(s.filters[0].tuples[3].mask, 0x10u);
  EXPECT_EQ(s.filters[0].tuples[3].pattern, 0x10u);
  ASSERT_EQ(s.nodes.size(), 2u);
  EXPECT_EQ(s.nodes[0].name, "node0");
  EXPECT_EQ(s.nodes[0].mac, "00:46:61:af:fe:23");
  EXPECT_EQ(s.nodes[1].ip, "192.168.1.2");
}

TEST(Parser, ScenarioCountersBothForms) {
  AstScript s = parse_script(R"(
SCENARIO test
  EV: (pkt, a, b, RECV)
  SV: (pkt, a, b, SEND)
  LV: (a)
END
)");
  ASSERT_EQ(s.scenarios.size(), 1u);
  const AstScenario& sc = s.scenarios[0];
  EXPECT_EQ(sc.name, "test");
  EXPECT_FALSE(sc.timeout);
  ASSERT_EQ(sc.counters.size(), 3u);
  EXPECT_FALSE(sc.counters[0].is_local);
  EXPECT_EQ(sc.counters[0].dir, net::Direction::kRecv);
  EXPECT_EQ(sc.counters[1].dir, net::Direction::kSend);
  EXPECT_TRUE(sc.counters[2].is_local);
  EXPECT_EQ(sc.counters[2].node, "a");
}

TEST(Parser, ScenarioTimeout) {
  AstScript s = parse_script("SCENARIO t 1sec\nEND\n");
  ASSERT_TRUE(s.scenarios[0].timeout);
  EXPECT_EQ(s.scenarios[0].timeout->ns, seconds(1).ns);
}

TEST(Parser, RuleConditionPrecedence) {
  AstScript s = parse_script(R"(
SCENARIO t
  A: (n)
  B: (n)
  ((A = 1) && (B > 2) || !(A < 0)) >> STOP;
END
)");
  const AstCond& c = s.scenarios[0].rules[0].cond;
  // || binds loosest: top is OR(AND(term,term), NOT(term)).
  ASSERT_EQ(c.kind, AstCond::Kind::kOr);
  EXPECT_EQ(c.a->kind, AstCond::Kind::kAnd);
  EXPECT_EQ(c.b->kind, AstCond::Kind::kNot);
  EXPECT_EQ(dump(c), "((A = 1) && (B > 2)) || (!(A < 0))");
}

TEST(Parser, BothActionCallForms) {
  // The paper mixes DROP TCP_synack, node2, node1, RECV; and FAIL(node3).
  AstScript s = parse_script(R"(
SCENARIO t
  A: (n)
  ((A = 1)) >> DROP pkt, n1, n2, RECV;
  ((A = 2)) >> FAIL(n3);
END
)");
  const auto& rules = s.scenarios[0].rules;
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].actions[0].name, "DROP");
  ASSERT_EQ(rules[0].actions[0].args.size(), 4u);
  EXPECT_EQ(rules[0].actions[0].args[3].ident, "RECV");
  EXPECT_EQ(rules[1].actions[0].name, "FAIL");
  EXPECT_EQ(rules[1].actions[0].args[0].ident, "n3");
}

TEST(Parser, MultiActionRule) {
  AstScript s = parse_script(R"(
SCENARIO t
  A: (n)
  (TRUE) >> ENABLE_CNTR(A);
            ASSIGN_CNTR(A, 5);
            INCR_CNTR(A, 1);
  ((A = 1)) >> STOP;
END
)");
  ASSERT_EQ(s.scenarios[0].rules.size(), 2u);
  EXPECT_EQ(s.scenarios[0].rules[0].actions.size(), 3u);
  EXPECT_EQ(s.scenarios[0].rules[0].cond.kind, AstCond::Kind::kTrue);
  EXPECT_EQ(s.scenarios[0].rules[0].actions[1].args[1].value, 5);
}

TEST(Parser, DurationAndTupleArguments) {
  AstScript s = parse_script(R"(
SCENARIO t
  A: (n)
  ((A = 1)) >> DELAY(pkt, n1, n2, RECV, 50ms);
  ((A = 2)) >> MODIFY(pkt, n1, n2, SEND, (47 1 0x04));
END
)");
  const auto& delay = s.scenarios[0].rules[0].actions[0];
  EXPECT_EQ(delay.args[4].kind, AstArg::Kind::kDuration);
  EXPECT_EQ(delay.args[4].duration.ns, millis(50).ns);
  const auto& mod = s.scenarios[0].rules[1].actions[0];
  ASSERT_EQ(mod.args[4].kind, AstArg::Kind::kTuple);
  EXPECT_EQ(mod.args[4].tuple, (std::vector<u64>{47, 1, 0x04}));
}

TEST(Parser, RateAndProbModifiers) {
  AstScript s = parse_script(R"(
SCENARIO t
  A: (n)
  ((A = 1)) >> DROP(pkt, n1, n2, RECV) RATE(3);
  ((A = 2)) >> DELAY(pkt, n1, n2, RECV, 50ms) PROB(0.25);
  ((A = 3)) >> DUP pkt, n1, n2, RECV PROB(1);
  ((A = 4)) >> MODIFY(pkt, n1, n2, SEND, (47 1 0x04));
END
)");
  const auto& rules = s.scenarios[0].rules;
  ASSERT_EQ(rules.size(), 4u);
  const AstAction& drop = rules[0].actions[0];
  EXPECT_EQ(drop.mod, AstAction::ModKind::kRate);
  EXPECT_EQ(drop.mod_rate, 3u);
  const AstAction& delay = rules[1].actions[0];
  EXPECT_EQ(delay.mod, AstAction::ModKind::kProb);
  EXPECT_DOUBLE_EQ(delay.mod_prob, 0.25);
  EXPECT_EQ(delay.args.size(), 5u);  // modifier is not an argument
  // Bare form: PROB terminates the argument list; integer probability OK.
  const AstAction& dup = rules[2].actions[0];
  EXPECT_EQ(dup.mod, AstAction::ModKind::kProb);
  EXPECT_DOUBLE_EQ(dup.mod_prob, 1.0);
  ASSERT_EQ(dup.args.size(), 4u);
  EXPECT_EQ(dup.args[3].ident, "RECV");
  // Unmodified action defaults.
  const AstAction& mod = rules[3].actions[0];
  EXPECT_EQ(mod.mod, AstAction::ModKind::kNone);
  EXPECT_EQ(mod.mod_rate, 0u);
  EXPECT_DOUBLE_EQ(mod.mod_prob, 1.0);
}

TEST(Parser, MultipleScenarios) {
  AstScript s = parse_script(R"(
SCENARIO one
END
SCENARIO two 5sec
END
)");
  ASSERT_EQ(s.scenarios.size(), 2u);
  EXPECT_EQ(s.scenarios[0].name, "one");
  EXPECT_EQ(s.scenarios[1].name, "two");
}

struct BadInput {
  const char* src;
  const char* expect_in_message;
};

// ctest names each case after this print.  gtest's default prints the raw
// bytes of the two pointers, which address-space randomisation changes on
// every run, so the discovered names would differ from build to build.
void PrintTo(const BadInput& b, std::ostream* os) {
  *os << b.expect_in_message;
}

class ParserErrors : public ::testing::TestWithParam<BadInput> {};

TEST_P(ParserErrors, ReportedWithContext) {
  try {
    parse_script(GetParam().src);
    FAIL() << "expected ParseError for: " << GetParam().src;
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(GetParam().expect_in_message),
              std::string::npos)
        << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserErrors,
    ::testing::Values(
        BadInput{"GARBAGE", "unknown section"},
        BadInput{"VAR ;", "variable name"},
        BadInput{"FILTER_TABLE\nx (34 2 1)\nEND", "':'"},
        BadInput{"FILTER_TABLE\nx: (34)\nEND", "byte count"},
        BadInput{"FILTER_TABLE\nx: (34 2 1 2 3)\nEND", "filter tuple"},
        BadInput{"NODE_TABLE\nn 10.0.0.1\nEND", "MAC"},
        BadInput{"SCENARIO t\n  (A > ) >> STOP;\nEND",
                 "counter name or integer"},
        BadInput{"SCENARIO t\n  (A) >> STOP;\nEND", "relational"},
        BadInput{"SCENARIO t\n  (TRUE) >> EXPLODE;\nEND", "unknown action"},
        BadInput{"SCENARIO t\n  (TRUE) STOP;\nEND", "'>>'"},
        BadInput{"SCENARIO t\n  (TRUE) >> DROP(p, a, b, RECV) RATE(x);\nEND",
                 "integer rate"},
        BadInput{"SCENARIO t\n  (TRUE) >> DROP(p, a, b, RECV) PROB(RECV);\nEND",
                 "probability"},
        BadInput{
            "SCENARIO t\n"
            "  (TRUE) >> DROP(p, a, b, RECV) RATE(2) PROB(0.5);\nEND",
            "at most one"}));

// --- multi-diagnostic accumulation and recovery ----------------------------

TEST(ParserRecovery, CollectsMultipleErrorsInOnePass) {
  // Three independent mistakes: a bad filter tuple, a node line with no
  // MAC, and an unknown action.  Throw-mode would stop at the first; the
  // accumulating overload must report all three.
  constexpr const char* kBroken = R"(
FILTER_TABLE
  bad: (34)
  ok: (23 1 0x11)
END
NODE_TABLE
  broken 10.0.0.1
  fine 00:00:00:00:00:02 10.0.0.2
END
SCENARIO t
  C: (ok, fine, fine, RECV)
  (TRUE) >> EXPLODE;
  ((C = 1)) >> STOP;
END
)";
  std::vector<Diagnostic> diags;
  AstScript s = parse_script(kBroken, diags);
  ASSERT_GE(diags.size(), 3u);
  auto has = [&](const char* frag) {
    for (const Diagnostic& d : diags)
      if (d.message.find(frag) != std::string::npos) return true;
    return false;
  };
  EXPECT_TRUE(has("byte count"));
  EXPECT_TRUE(has("MAC"));
  EXPECT_TRUE(has("unknown action"));
  for (const Diagnostic& d : diags)
    EXPECT_EQ(d.severity, Severity::kError) << format_diagnostic(d);
}

TEST(ParserRecovery, HealthyDeclarationsSurviveAroundErrors) {
  // Recovery must not eat the good entries on either side of a bad one.
  constexpr const char* kBroken = R"(
FILTER_TABLE
  first: (23 1 0x11)
  bad (34 2 1)
  last: (36 2 0x0007)
END
NODE_TABLE
  a 00:00:00:00:00:01 10.0.0.1
END
)";
  std::vector<Diagnostic> diags;
  AstScript s = parse_script(kBroken, diags);
  EXPECT_FALSE(diags.empty());
  ASSERT_GE(s.filters.size(), 2u);
  EXPECT_EQ(s.filters.front().name, "first");
  EXPECT_EQ(s.filters.back().name, "last");
  ASSERT_EQ(s.nodes.size(), 1u);
  EXPECT_EQ(s.nodes[0].name, "a");
}

TEST(ParserRecovery, ScenarioStatementsResyncOnSemicolon) {
  constexpr const char* kBroken = R"(
FILTER_TABLE
  f: (23 1 0x11)
END
NODE_TABLE
  a 00:00:00:00:00:01 10.0.0.1
END
SCENARIO t
  C: (f, a, a, RECV)
  (TRUE) >> BOGUS_ONE;
  ((C = 1)) >> BOGUS_TWO;
  ((C = 2)) >> STOP;
END
)";
  std::vector<Diagnostic> diags;
  AstScript s = parse_script(kBroken, diags);
  EXPECT_EQ(diags.size(), 2u);
  // The well-formed rule after the two broken ones still parses.
  ASSERT_EQ(s.scenarios.size(), 1u);
  ASSERT_FALSE(s.scenarios[0].rules.empty());
}

TEST(ParserRecovery, LocationsPointAtOffendingTokens) {
  std::vector<Diagnostic> diags;
  parse_script("FILTER_TABLE\n  x: (34)\nEND\n", diags);
  ASSERT_FALSE(diags.empty());
  EXPECT_EQ(diags[0].loc.line, 2u);
  EXPECT_GT(diags[0].loc.col, 1u);
}

TEST(ParserRecovery, ThrowModeStillThrowsFirstError) {
  // The historical single-error contract is unchanged for callers that
  // don't pass a diagnostic sink.
  EXPECT_THROW(parse_script("FILTER_TABLE\n  x: (34)\nEND\n"), ParseError);
}

TEST(ParserRecovery, DiagnosticCapStopsRunawayAccumulation) {
  // A pathologically broken script must not produce unbounded output.
  std::string src = "SCENARIO t\n";
  for (int i = 0; i < 200; ++i) src += "  (TRUE) >> NOPE_" + std::to_string(i) + ";\n";
  src += "END\n";
  std::vector<Diagnostic> diags;
  parse_script(src, diags);
  EXPECT_GE(diags.size(), 2u);
  EXPECT_LE(diags.size(), 30u);
}

}  // namespace
}  // namespace vwire::fsl
