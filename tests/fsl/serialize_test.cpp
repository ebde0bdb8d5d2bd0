// Round-trip of the six-table bundle through the control plane's wire
// format — what INIT messages actually carry (paper §5.1).
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>

#include "vwire/core/fsl/compiler.hpp"
#include "vwire/util/bytes.hpp"

namespace vwire::core {
namespace {

constexpr const char* kScript = R"(
VAR SEQ;
FILTER_TABLE
  pkt: (12 2 0x0800), (38 4 SEQ), (47 1 0x10 0x10)
  tok: (12 2 0x9900)
END
NODE_TABLE
  n1 02:00:00:00:00:00 10.0.0.1
  n2 02:00:00:00:00:01 10.0.0.2
END
SCENARIO round_trip 3sec
  A: (pkt, n1, n2, RECV)
  B: (n1)
  (TRUE) >> ENABLE_CNTR(A); ASSIGN_CNTR(B, 7);
  ((A > 2) && (B != 0)) >> DELAY(pkt, n1, n2, RECV, 30ms) PROB(0.25);
  ((A = 5)) >> REORDER(tok, n2, n1, SEND, 4, 2, 1, 4, 3);
  ((B < 0)) >> MODIFY(pkt, n1, n2, SEND, (40 2 0xbeef)) RATE(3);
  ((A = 9)) >> FAIL(n2);
  ((A = 10)) >> STOP;
END
)";

TEST(TableSerialization, RoundTripIsLossless) {
  TableSet original = fsl::compile_script(kScript);
  Bytes wire = serialize(original);
  TableSet copy = deserialize_tables(wire);

  EXPECT_EQ(copy.scenario_name, "round_trip");
  EXPECT_EQ(copy.inactivity_timeout.ns, seconds(3).ns);

  // Filters.
  ASSERT_EQ(copy.filters.entries.size(), original.filters.entries.size());
  EXPECT_EQ(copy.filters.var_names, original.filters.var_names);
  for (std::size_t i = 0; i < original.filters.entries.size(); ++i) {
    const auto& a = original.filters.entries[i];
    const auto& b = copy.filters.entries[i];
    EXPECT_EQ(a.name, b.name);
    ASSERT_EQ(a.tuples.size(), b.tuples.size());
    for (std::size_t j = 0; j < a.tuples.size(); ++j) {
      EXPECT_EQ(a.tuples[j].offset, b.tuples[j].offset);
      EXPECT_EQ(a.tuples[j].length, b.tuples[j].length);
      EXPECT_EQ(a.tuples[j].mask, b.tuples[j].mask);
      EXPECT_EQ(a.tuples[j].pattern, b.tuples[j].pattern);
      EXPECT_EQ(a.tuples[j].var, b.tuples[j].var);
    }
  }
  // Nodes.
  ASSERT_EQ(copy.nodes.entries.size(), 2u);
  EXPECT_EQ(copy.nodes.entries[1].mac, original.nodes.entries[1].mac);
  EXPECT_EQ(copy.nodes.entries[1].ip, original.nodes.entries[1].ip);

  // Counters with dependency fan-out.
  ASSERT_EQ(copy.counters.entries.size(), original.counters.entries.size());
  for (std::size_t i = 0; i < original.counters.entries.size(); ++i) {
    const auto& a = original.counters.entries[i];
    const auto& b = copy.counters.entries[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.home, b.home);
    EXPECT_EQ(a.terms, b.terms);
    EXPECT_EQ(a.notify_nodes, b.notify_nodes);
  }
  // Terms.
  ASSERT_EQ(copy.terms.entries.size(), original.terms.entries.size());
  for (std::size_t i = 0; i < original.terms.entries.size(); ++i) {
    EXPECT_EQ(copy.terms.entries[i].op, original.terms.entries[i].op);
    EXPECT_EQ(copy.terms.entries[i].eval_node,
              original.terms.entries[i].eval_node);
    EXPECT_EQ(copy.terms.entries[i].conds, original.terms.entries[i].conds);
  }
  // Conditions.
  ASSERT_EQ(copy.conditions.entries.size(),
            original.conditions.entries.size());
  for (std::size_t i = 0; i < original.conditions.entries.size(); ++i) {
    EXPECT_EQ(copy.conditions.entries[i].actions,
              original.conditions.entries[i].actions);
    EXPECT_EQ(copy.conditions.entries[i].eval_nodes,
              original.conditions.entries[i].eval_nodes);
    ASSERT_EQ(copy.conditions.entries[i].postfix.size(),
              original.conditions.entries[i].postfix.size());
  }
  // Actions.
  ASSERT_EQ(copy.actions.entries.size(), original.actions.entries.size());
  for (std::size_t i = 0; i < original.actions.entries.size(); ++i) {
    const auto& a = original.actions.entries[i];
    const auto& b = copy.actions.entries[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.exec_node, b.exec_node);
    EXPECT_EQ(a.delay.ns, b.delay.ns);
    EXPECT_EQ(a.reorder_order, b.reorder_order);
    EXPECT_EQ(a.modify_bytes.size(), b.modify_bytes.size());
    EXPECT_EQ(a.fail_node, b.fail_node);
    EXPECT_EQ(a.counter, b.counter);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.rate_n, b.rate_n);
    EXPECT_DOUBLE_EQ(a.prob, b.prob);
  }
  // Double round-trip produces identical bytes (canonical form).
  EXPECT_EQ(serialize(copy), wire);
}

TEST(TableSerialization, RejectsGarbage) {
  Bytes junk = {1, 2, 3, 4, 5};
  EXPECT_THROW(deserialize_tables(junk), std::exception);
  Bytes empty;
  EXPECT_THROW(deserialize_tables(empty), std::exception);
}

TEST(TableSerialization, RejectsTruncatedBundle) {
  TableSet original = fsl::compile_script(kScript);
  Bytes wire = serialize(original);
  wire.resize(wire.size() / 2);
  EXPECT_THROW(deserialize_tables(wire), std::exception);
}

TEST(TableSerialization, V3CarriesRuleProvenance) {
  TableSet original = fsl::compile_script(kScript);
  TableSet copy = deserialize_tables(serialize(original));
  ASSERT_EQ(copy.conditions.entries.size(), original.conditions.entries.size());
  for (std::size_t i = 0; i < original.conditions.entries.size(); ++i) {
    EXPECT_EQ(copy.conditions.entries[i].src_line,
              original.conditions.entries[i].src_line);
    EXPECT_EQ(copy.conditions.entries[i].src_col,
              original.conditions.entries[i].src_col);
    EXPECT_GT(copy.conditions.entries[i].src_line, 0u);  // compiler filled it
  }
  ASSERT_EQ(copy.actions.entries.size(), original.actions.entries.size());
  for (std::size_t i = 0; i < original.actions.entries.size(); ++i) {
    EXPECT_EQ(copy.actions.entries[i].cond, original.actions.entries[i].cond);
    // The back-reference agrees with the condition table's forward lists.
    EXPECT_EQ(copy.owning_cond(static_cast<ActionId>(i)),
              copy.actions.entries[i].cond);
  }
}

TEST(TableSerialization, AcceptsV2WithoutProvenance) {
  // A hand-built minimal v2 bundle: the pre-provenance layout ends every
  // action at the PROB bits.  The reader must still accept it, defaulting
  // provenance to "unknown" and reconstructing action→condition
  // back-references from the condition table.
  ByteWriter w;
  w.u32v(0x56575442);  // "VWTB"
  w.u16v(2);
  w.str("legacy");
  w.u64v(0);           // inactivity timeout
  w.u16v(0);           // var names
  w.u16v(0);           // filters
  w.u16v(0);           // nodes
  w.u16v(0);           // counters
  w.u16v(0);           // terms
  w.u16v(1);           // one condition...
  w.u16v(0);           //   empty postfix (a (TRUE) rule)
  w.u16v(1);           //   one action: id 0
  w.u16v(0);
  w.u16v(0);           //   no eval nodes
  w.u16v(1);           // ...owning one action
  w.u8v(6);            //   kind = kStop
  w.u16v(0);           //   exec_node
  w.u16v(0xffff);      //   filter
  w.u16v(0xffff);      //   src_node
  w.u16v(0xffff);      //   dst_node
  w.u8v(0);            //   dir
  w.u64v(0);           //   delay
  w.u16v(0);           //   reorder_count
  w.u16v(0);           //   reorder_order
  w.u16v(0);           //   modify_bytes
  w.u16v(0xffff);      //   fail_node
  w.u16v(0xffff);      //   counter
  w.u64v(0);           //   value
  w.u32v(0);           //   rate_n
  w.u64v(0);           //   prob bits

  TableSet t = deserialize_tables(w.take());
  EXPECT_EQ(t.scenario_name, "legacy");
  ASSERT_EQ(t.conditions.entries.size(), 1u);
  ASSERT_EQ(t.actions.entries.size(), 1u);
  EXPECT_EQ(t.conditions.entries[0].src_line, 0u);  // provenance unknown
  EXPECT_EQ(t.actions.entries[0].cond, 0u);         // reconstructed backref
  EXPECT_EQ(t.owning_cond(0), 0u);
}

TEST(TableSerialization, RejectsUnknownVersions) {
  ByteWriter w1;
  w1.u32v(0x56575442);
  w1.u16v(1);  // pre-v2: no longer readable
  EXPECT_THROW(deserialize_tables(w1.take()), std::exception);
  ByteWriter w4;
  w4.u32v(0x56575442);
  w4.u16v(4);  // from the future
  EXPECT_THROW(deserialize_tables(w4.take()), std::exception);
}

TEST(TableSerialization, EmptyTablesSurvive) {
  TableSet t;
  t.scenario_name = "empty";
  Bytes wire = serialize(t);
  TableSet copy = deserialize_tables(wire);
  EXPECT_EQ(copy.scenario_name, "empty");
  EXPECT_TRUE(copy.filters.entries.empty());
  EXPECT_TRUE(copy.actions.entries.empty());
}

TEST(TableSerialization, RejectsOutOfRangeTermInProgram) {
  // An engine indexes term state with every id in a condition program; a
  // bundle naming term 4000 must fail INIT rather than read out of bounds.
  TableSet t = fsl::compile_script(kScript);
  ASSERT_EQ(t.conditions.entries[1].postfix[0].op, BoolOp::kTerm);
  t.conditions.entries[1].postfix[0].term = 4000;
  EXPECT_THROW(deserialize_tables(serialize(t)), std::invalid_argument);
}

TEST(TableSerialization, RejectsMalformedTables) {
  const TableSet good = fsl::compile_script(kScript);
  ASSERT_NO_THROW(deserialize_tables(serialize(good)));
  auto action_of = [&good](ActionKind k) {
    for (std::size_t a = 0; a < good.actions.entries.size(); ++a) {
      if (good.actions.entries[a].kind == k) return a;
    }
    ADD_FAILURE() << "no " << to_string(k) << " action";
    return std::size_t{0};
  };
  const std::size_t del = action_of(ActionKind::kDelay);
  const std::size_t reo = action_of(ActionKind::kReorder);
  const std::size_t fail = action_of(ActionKind::kFail);
  const std::size_t enable = action_of(ActionKind::kEnableCntr);
  const TermId t0 = good.conditions.entries[1].postfix[0].term;

  const std::vector<std::pair<const char*, std::function<void(TableSet&)>>>
      mutations = {
          {"program underflows",
           [](TableSet& t) {
             t.conditions.entries[1].postfix = {{BoolOp::kAnd, kInvalidId}};
           }},
          {"program leaves two values",
           [t0](TableSet& t) {
             t.conditions.entries[1].postfix = {{BoolOp::kTerm, t0},
                                                {BoolOp::kTerm, t0}};
           }},
          {"unknown operator",
           [](TableSet& t) {
             t.conditions.entries[1].postfix[0].op = static_cast<BoolOp>(9);
           }},
          {"condition action id",
           [](TableSet& t) { t.conditions.entries[0].actions.push_back(999); }},
          {"action back-reference disagrees",
           [](TableSet& t) { t.actions.entries[0].cond = 3; }},
          {"action back-reference out of range",
           [](TableSet& t) { t.actions.entries[0].cond = 77; }},
          {"term counter id",
           [](TableSet& t) {
             t.terms.entries[0].lhs.is_counter = true;
             t.terms.entries[0].lhs.counter = 500;
           }},
          {"term condition id",
           [](TableSet& t) { t.terms.entries[0].conds.push_back(700); }},
          {"counter term id",
           [](TableSet& t) { t.counters.entries[0].terms.push_back(600); }},
          {"counter filter id",
           [](TableSet& t) { t.counters.entries[0].filter = 42; }},
          {"counter notify node",
           [](TableSet& t) { t.counters.entries[0].notify_nodes = {50}; }},
          {"filter variable id",
           [](TableSet& t) { t.filters.entries[0].tuples[1].var = 9; }},
          {"action filter id",
           [del](TableSet& t) { t.actions.entries[del].filter = 42; }},
          {"FAIL target",
           [fail](TableSet& t) { t.actions.entries[fail].fail_node = 9; }},
          {"counter action target",
           [enable](TableSet& t) { t.actions.entries[enable].counter = 99; }},
          {"action kind",
           [](TableSet& t) {
             t.actions.entries[0].kind = static_cast<ActionKind>(40);
           }},
          {"reorder position",
           [reo](TableSet& t) { t.actions.entries[reo].reorder_order[0] = 5; }},
      };
  for (const auto& [what, mutate] : mutations) {
    TableSet bad = good;
    mutate(bad);
    EXPECT_THROW(deserialize_tables(serialize(bad)), std::invalid_argument)
        << what;
  }
}

}  // namespace
}  // namespace vwire::core
