#include "vwire/core/fsl/compiler.hpp"

#include <gtest/gtest.h>

namespace vwire::fsl {
namespace {

using core::ActionKind;
using core::CounterKind;
using core::kInvalidId;

constexpr const char* kPrelude = R"(
FILTER_TABLE
  pkt: (12 2 0x0800), (34 2 0x6000)
  tok: (12 2 0x9900)
END
NODE_TABLE
  n1 02:00:00:00:00:00 10.0.0.1
  n2 02:00:00:00:00:01 10.0.0.2
  n3 02:00:00:00:00:02 10.0.0.3
END
)";

core::TableSet compile_with(const std::string& scenario) {
  return compile_script(std::string(kPrelude) + scenario);
}

TEST(Compiler, FilterMasksDefaultToFullWidth) {
  auto t = compile_with("SCENARIO s\nEND\n");
  ASSERT_EQ(t.filters.entries.size(), 2u);
  EXPECT_EQ(t.filters.entries[0].tuples[0].mask, 0xffffu);
  EXPECT_EQ(t.filters.entries[0].tuples[0].pattern, 0x0800u);
}

TEST(Compiler, CounterHomesFollowDirection) {
  auto t = compile_with(R"(
SCENARIO s
  R: (pkt, n1, n2, RECV)
  S: (pkt, n1, n2, SEND)
  L: (n3)
END
)");
  ASSERT_EQ(t.counters.entries.size(), 3u);
  // RECV counts at the destination; SEND at the source (paper §4).
  EXPECT_EQ(t.counters.entries[0].home, t.nodes.find("n2"));
  EXPECT_EQ(t.counters.entries[1].home, t.nodes.find("n1"));
  EXPECT_EQ(t.counters.entries[2].home, t.nodes.find("n3"));
  EXPECT_EQ(t.counters.entries[2].kind, CounterKind::kLocal);
}

TEST(Compiler, TermsDedupedAcrossRules) {
  auto t = compile_with(R"(
SCENARIO s
  A: (n1)
  ((A = 1)) >> STOP;
  ((A = 1) && (A > 0)) >> FLAG_ERROR;
END
)");
  // "A = 1" appears twice but compiles to one term entry.
  EXPECT_EQ(t.terms.entries.size(), 2u);
  // The shared term feeds both conditions.
  EXPECT_EQ(t.terms.entries[0].conds.size(), 2u);
}

TEST(Compiler, ConstantOnLeftNormalized) {
  auto t = compile_with(R"(
SCENARIO s
  A: (n1)
  ((3 < A)) >> STOP;
END
)");
  const core::TermEntry& term = t.terms.entries[0];
  EXPECT_TRUE(term.lhs.is_counter);
  EXPECT_FALSE(term.rhs.is_counter);
  EXPECT_EQ(term.rhs.constant, 3);
  EXPECT_EQ(term.op, core::RelOp::kGt);  // flipped
}

TEST(Compiler, FaultActionsExecuteAtObservationPoint) {
  auto t = compile_with(R"(
SCENARIO s
  A: (n1)
  ((A = 1)) >> DROP(pkt, n1, n2, RECV);
  ((A = 2)) >> DROP(pkt, n1, n2, SEND);
END
)");
  EXPECT_EQ(t.actions.entries[0].exec_node, t.nodes.find("n2"));
  EXPECT_EQ(t.actions.entries[1].exec_node, t.nodes.find("n1"));
}

TEST(Compiler, CounterActionsExecuteAtCounterHome) {
  auto t = compile_with(R"(
SCENARIO s
  R: (pkt, n1, n2, RECV)
  (TRUE) >> ENABLE_CNTR(R);
END
)");
  EXPECT_EQ(t.actions.entries[0].exec_node, t.nodes.find("n2"));
  EXPECT_EQ(t.actions.entries[0].kind, ActionKind::kEnableCntr);
}

TEST(Compiler, DistributedRuleWiring) {
  // Counter on n2, action on n3: the paper's Fig 6 shape.  The term must
  // notify n3 (where the condition is evaluated for the FAIL action).
  auto t = compile_with(R"(
SCENARIO s
  R: (pkt, n1, n2, RECV)
  ((R = 1)) >> FAIL(n3);
END
)");
  const core::TermEntry& term = t.terms.entries[0];
  EXPECT_EQ(term.eval_node, t.nodes.find("n2"));
  ASSERT_EQ(term.notify_nodes.size(), 1u);
  EXPECT_EQ(term.notify_nodes[0], t.nodes.find("n3"));
  // The FAIL's condition is evaluated on n3.
  EXPECT_EQ(t.conditions.entries[0].eval_nodes,
            (std::vector<core::NodeId>{t.nodes.find("n3")}));
}

TEST(Compiler, CrossNodeCounterOperandsMirrored) {
  // Term comparing counters homed on different nodes: the rhs counter's
  // value must be mirrored to the term's eval node (paper §5.2).
  auto t = compile_with(R"(
SCENARIO s
  A: (pkt, n1, n2, RECV)
  B: (pkt, n1, n2, SEND)
  ((A > B)) >> STOP;
END
)");
  const core::CounterEntry& b = t.counters.entries[t.counters.find("B")];
  ASSERT_EQ(b.notify_nodes.size(), 1u);
  EXPECT_EQ(b.notify_nodes[0], t.nodes.find("n2"));  // A's home, term home
  const core::CounterEntry& a = t.counters.entries[t.counters.find("A")];
  EXPECT_TRUE(a.notify_nodes.empty());  // evaluated where it lives
}

TEST(Compiler, CounterDependencyListsPopulated) {
  auto t = compile_with(R"(
SCENARIO s
  A: (n1)
  B: (n1)
  ((A = 1)) >> INCR_CNTR(B, 1);
  ((A > 1) && (B = 2)) >> STOP;
END
)");
  const core::CounterEntry& a = t.counters.entries[t.counters.find("A")];
  EXPECT_EQ(a.terms.size(), 2u);  // A=1 and A>1
  const core::CounterEntry& b = t.counters.entries[t.counters.find("B")];
  EXPECT_EQ(b.terms.size(), 1u);
}

TEST(Compiler, ReorderDefaultsToReversedPermutation) {
  auto t = compile_with(R"(
SCENARIO s
  A: (n1)
  ((A = 1)) >> REORDER(pkt, n1, n2, RECV, 3);
END
)");
  EXPECT_EQ(t.actions.entries[0].reorder_order,
            (std::vector<u16>{3, 2, 1}));
}

TEST(Compiler, ModifyTupleExpandsToBytes) {
  auto t = compile_with(R"(
SCENARIO s
  A: (n1)
  ((A = 1)) >> MODIFY(pkt, n1, n2, SEND, (40 2 0x1234));
END
)");
  const auto& mods = t.actions.entries[0].modify_bytes;
  ASSERT_EQ(mods.size(), 2u);
  EXPECT_EQ(mods[0].offset, 40);
  EXPECT_EQ(mods[0].value, 0x12);
  EXPECT_EQ(mods[1].offset, 41);
  EXPECT_EQ(mods[1].value, 0x34);
}

TEST(Compiler, ModifiersPopulateActionEntries) {
  auto t = compile_with(R"(
SCENARIO s
  A: (n1)
  ((A = 1)) >> DROP(pkt, n1, n2, RECV) RATE(3);
  ((A = 2)) >> DELAY(pkt, n1, n2, RECV, 10ms) PROB(0.25);
  ((A = 3)) >> DUP(pkt, n1, n2, SEND);
END
)");
  ASSERT_EQ(t.actions.entries.size(), 3u);
  EXPECT_EQ(t.actions.entries[0].rate_n, 3u);
  EXPECT_DOUBLE_EQ(t.actions.entries[0].prob, 1.0);
  EXPECT_EQ(t.actions.entries[1].rate_n, 0u);
  EXPECT_DOUBLE_EQ(t.actions.entries[1].prob, 0.25);
  // Unmodified actions keep the pass-through defaults.
  EXPECT_EQ(t.actions.entries[2].rate_n, 0u);
  EXPECT_DOUBLE_EQ(t.actions.entries[2].prob, 1.0);
}

TEST(Compiler, VarTuplesResolve) {
  auto t = compile_script(
      "VAR SEQ;\n"
      "FILTER_TABLE\n  f: (38 4 SEQ)\nEND\n"
      "NODE_TABLE\n  n1 02:00:00:00:00:00 10.0.0.1\nEND\n"
      "SCENARIO s\nEND\n");
  EXPECT_EQ(t.filters.var_names, (std::vector<std::string>{"SEQ"}));
  EXPECT_TRUE(t.filters.entries[0].tuples[0].is_var());
  EXPECT_EQ(t.filters.entries[0].tuples[0].var, 0);
}

TEST(Compiler, ScenarioSelectionByName) {
  std::string src = std::string(kPrelude) +
                    "SCENARIO first\nEND\nSCENARIO second 2sec\nEND\n";
  auto def = compile_script(src);
  EXPECT_EQ(def.scenario_name, "first");
  CompileOptions opts;
  opts.scenario = "second";
  auto named = compile_script(src, opts);
  EXPECT_EQ(named.scenario_name, "second");
  EXPECT_EQ(named.inactivity_timeout.ns, seconds(2).ns);
}

struct BadScript {
  const char* scenario;
  const char* expect;
};

// Names the ctest case after the expected message, not the pointer bytes
// gtest prints by default (those change with every run's address layout).
void PrintTo(const BadScript& b, std::ostream* os) { *os << b.expect; }

class CompilerErrors : public ::testing::TestWithParam<BadScript> {};

TEST_P(CompilerErrors, Diagnosed) {
  try {
    compile_with(GetParam().scenario);
    FAIL() << GetParam().scenario;
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(GetParam().expect),
              std::string::npos)
        << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CompilerErrors,
    ::testing::Values(
        BadScript{"SCENARIO s\n X: (ghost, n1, n2, RECV)\nEND\n",
                  "unknown packet type"},
        BadScript{"SCENARIO s\n X: (pkt, n1, ghost, RECV)\nEND\n",
                  "unknown node"},
        BadScript{"SCENARIO s\n A: (n1)\n ((B = 1)) >> STOP;\nEND\n",
                  "unknown counter"},
        BadScript{"SCENARIO s\n A: (n1)\n A: (n1)\nEND\n",
                  "duplicate counter"},
        BadScript{"SCENARIO s\n A: (n1)\n ((1 = 2)) >> STOP;\nEND\n",
                  "at least one counter"},
        BadScript{"SCENARIO s\n A: (n1)\n ((A = 1)) >> DROP(pkt, n1, n2);\n"
                  "END\n",
                  "expected 4 arguments"},
        BadScript{"SCENARIO s\n A: (n1)\n"
                  " ((A = 1)) >> REORDER(pkt, n1, n2, RECV, 3, 1, 1, 2);\n"
                  "END\n",
                  "permutation"},
        BadScript{"SCENARIO s\n A: (n1)\n"
                  " ((A = 1)) >> DELAY(pkt, n1, n2, RECV, n2);\nEND\n",
                  "duration"},
        BadScript{"SCENARIO s\n A: (n1)\n"
                  " ((A = 1)) >> DROP(pkt, n1, n2, RECV) PROB(0.0);\nEND\n",
                  "(0, 1]"},
        BadScript{"SCENARIO s\n A: (n1)\n"
                  " ((A = 1)) >> FAIL(n2) RATE(5);\nEND\n",
                  "packet faults"}));

TEST(Compiler, NoScenarioIsAnError) {
  EXPECT_THROW(compile_script(kPrelude), ParseError);
}

}  // namespace
}  // namespace vwire::fsl
