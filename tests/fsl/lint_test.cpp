#include "vwire/core/fsl/lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "vwire/core/fsl/compiler.hpp"
#include "vwire/core/fsl/parser.hpp"
#include "vwire/util/rng.hpp"

namespace vwire::fsl {
namespace {

// --- golden corpus ---------------------------------------------------------
//
// Every deliberately-broken script in examples/lint_corpus must be flagged
// with the right rule id at the right line:col.  The corpus is the same set
// the `lint_corpus_*` ctest entries run through the CLI; here we pin the
// exact diagnostics.

std::string read_corpus(const std::string& name) {
  const std::string path = std::string(VWIRE_LINT_CORPUS_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing corpus file " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<Diagnostic> lint_corpus(const std::string& name) {
  CompileOptions opts;
  opts.lint = true;
  return check_script(read_corpus(name), opts).diagnostics;
}

bool has_diag(const std::vector<Diagnostic>& diags, const std::string& rule,
              Severity sev, u32 line, u32 col) {
  return std::any_of(diags.begin(), diags.end(), [&](const Diagnostic& d) {
    return d.rule == rule && d.severity == sev && d.loc.line == line &&
           d.loc.col == col;
  });
}

std::string dump(const std::vector<Diagnostic>& diags) {
  std::string out;
  for (const Diagnostic& d : diags) out += format_diagnostic(d) + "\n";
  return out;
}

struct CorpusCase {
  const char* file;
  const char* rule;
  Severity severity;
  u32 line, col;
};

// Names the ctest case after the corpus file, not the pointer bytes gtest
// prints by default (those change with every run's address layout).
void PrintTo(const CorpusCase& c, std::ostream* os) { *os << c.file; }

class LintCorpus : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(LintCorpus, FlagsExpectedRuleAtLocation) {
  const CorpusCase& c = GetParam();
  std::vector<Diagnostic> diags = lint_corpus(c.file);
  EXPECT_TRUE(has_diag(diags, c.rule, c.severity, c.line, c.col))
      << "expected [" << c.rule << "] at " << c.line << ":" << c.col
      << " in " << c.file << "; got:\n" << dump(diags);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LintCorpus,
    ::testing::Values(
        CorpusCase{"shadowed_filter.fsl", "shadowed-filter", Severity::kError,
                   5, 3},
        CorpusCase{"unsat_filter.fsl", "unsatisfiable-filter",
                   Severity::kError, 5, 3},
        CorpusCase{"unbound_variable.fsl", "unbound-variable",
                   Severity::kError, 5, 25},
        CorpusCase{"duplicate_name.fsl", "duplicate-name", Severity::kError,
                   5, 3},
        CorpusCase{"unsat_condition.fsl", "unsatisfiable-condition",
                   Severity::kError, 14, 3},
        CorpusCase{"action_conflict.fsl", "conflicting-actions",
                   Severity::kError, 14, 19},
        CorpusCase{"dead_counter.fsl", "dead-symbol", Severity::kWarning,
                   12, 3},
        CorpusCase{"cross_node_cycle.fsl", "cross-node-cycle",
                   Severity::kWarning, 11, 3},
        CorpusCase{"no_stop.fsl", "no-stop", Severity::kWarning, 10, 1},
        CorpusCase{"modifier_noop.fsl", "modifier-no-op", Severity::kWarning,
                   13, 55},
        CorpusCase{"modifier_range.fsl", "modifier-range", Severity::kError,
                   13, 62},
        CorpusCase{"modifier_conflict.fsl", "modifier-conflict",
                   Severity::kError, 13, 30}));

TEST(LintCorpusSeverity, ErrorCasesFailAndWarningCasesPass) {
  // The arm gate only rejects errors; warning-only corpus cases must still
  // compile clean so a runner would arm them (the CLI needs --werror).
  EXPECT_GT(count_errors(lint_corpus("shadowed_filter.fsl")), 0u);
  EXPECT_GT(count_errors(lint_corpus("action_conflict.fsl")), 0u);
  EXPECT_GT(count_errors(lint_corpus("modifier_range.fsl")), 0u);
  EXPECT_GT(count_errors(lint_corpus("modifier_conflict.fsl")), 0u);
  EXPECT_EQ(count_errors(lint_corpus("dead_counter.fsl")), 0u);
  EXPECT_EQ(count_errors(lint_corpus("cross_node_cycle.fsl")), 0u);
  EXPECT_EQ(count_errors(lint_corpus("no_stop.fsl")), 0u);
  EXPECT_EQ(count_errors(lint_corpus("modifier_noop.fsl")), 0u);
}

// --- known-good scripts lint with zero errors ------------------------------

constexpr const char* kGoodEcho = R"(
FILTER_TABLE
  udp_req: (23 1 0x11), (34 2 0x9c40), (36 2 0x0007)
  udp_rsp: (23 1 0x11), (34 2 0x0007), (36 2 0x9c40)
END
NODE_TABLE
  client 00:00:00:00:00:01 10.0.0.1
  server 00:00:00:00:00:02 10.0.0.2
END
SCENARIO echo
  REQ: (udp_req, client, server, RECV)
  RSP: (udp_rsp, server, client, SEND)
  (TRUE) >> ENABLE_CNTR(REQ); ENABLE_CNTR(RSP);
  ((REQ = 3)) >> DROP(udp_req, client, server, RECV);
  ((RSP >= 8)) >> STOP;
END
)";

// Fig 6 idiom: the paper's verbatim listing reads CNT_DATA without ever
// enabling it.  That must stay a *warning* (never-enabled-counter), not an
// unsatisfiable-condition error — the script is published as-is.
constexpr const char* kFig6Style = R"(
FILTER_TABLE
  TCP_data: (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)
END
NODE_TABLE
  node0 00:46:61:af:fe:23 192.168.1.1
  node1 00:23:31:df:af:12 192.168.1.2
END
SCENARIO congestion
  CNT_DATA: (TCP_data, node0, node1, RECV)
  ((CNT_DATA > 1000)) >> STOP;
END
)";

// VAR-bound filters carry unknowable bytes; they must never be reported as
// shadowed or shadowing (the subsumption check is only sound var-free).
constexpr const char* kVarFilter = R"(
VAR SeqNo;
FILTER_TABLE
  tagged: (23 1 0x11), (38 4 SeqNo)
  any_udp: (23 1 0x11)
END
NODE_TABLE
  client 00:00:00:00:00:01 10.0.0.1
  server 00:00:00:00:00:02 10.0.0.2
END
SCENARIO var_ok
  TAG: (tagged, client, server, RECV)
  ALL: (any_udp, client, server, RECV)
  (TRUE) >> ENABLE_CNTR(TAG); ENABLE_CNTR(ALL);
  ((TAG = 2)) >> DUP(tagged, client, server, RECV);
  ((ALL >= 10)) >> STOP;
END
)";

// Well-formed RATE/PROB modifiers on packet faults must lint completely
// clean — no modifier-no-op, no modifier-range, no modifier-conflict.
constexpr const char* kGoodModifiers = R"(
FILTER_TABLE
  udp_req: (23 1 0x11), (34 2 0x9c40), (36 2 0x0007)
END
NODE_TABLE
  client 00:00:00:00:00:01 10.0.0.1
  server 00:00:00:00:00:02 10.0.0.2
END
SCENARIO soak
  REQ: (udp_req, client, server, RECV)
  (TRUE) >> ENABLE_CNTR(REQ);
  ((REQ >= 1)) >> DROP(udp_req, client, server, RECV) RATE(3);
  ((REQ >= 1)) >> DELAY(udp_req, client, server, RECV, 50ms) PROB(0.25);
  ((REQ >= 500)) >> STOP;
END
)";

TEST(LintGoodScripts, ModifiersLintClean) {
  CompileOptions opts;
  opts.lint = true;
  CompileResult r = check_script(kGoodModifiers, opts);
  EXPECT_TRUE(r.ok()) << dump(r.diagnostics);
  EXPECT_FALSE(std::any_of(r.diagnostics.begin(), r.diagnostics.end(),
                           [](const Diagnostic& d) {
                             return d.rule.rfind("modifier-", 0) == 0;
                           }))
      << dump(r.diagnostics);
}

TEST(LintGoodScripts, NoErrors) {
  for (const char* src : {kGoodEcho, kFig6Style, kVarFilter, kGoodModifiers}) {
    CompileOptions opts;
    opts.lint = true;
    CompileResult r = check_script(src, opts);
    EXPECT_TRUE(r.ok()) << dump(r.diagnostics);
  }
}

TEST(LintGoodScripts, Fig6StyleWarnsNeverEnabled) {
  CompileOptions opts;
  opts.lint = true;
  CompileResult r = check_script(kFig6Style, opts);
  EXPECT_TRUE(r.ok()) << dump(r.diagnostics);
  EXPECT_TRUE(std::any_of(
      r.diagnostics.begin(), r.diagnostics.end(),
      [](const Diagnostic& d) { return d.rule == "never-enabled-counter"; }))
      << dump(r.diagnostics);
}

TEST(LintGoodScripts, OverlapIsWarningNotError) {
  // TCP_syn-style overlapping mask filters (Fig 2) are idiomatic: both can
  // match the same packet, which is worth a note but must not block arming.
  constexpr const char* kOverlap = R"(
FILTER_TABLE
  f_syn: (47 1 0x02 0x02)
  f_ack: (47 1 0x10 0x10)
END
NODE_TABLE
  a 00:00:00:00:00:01 10.0.0.1
  b 00:00:00:00:00:02 10.0.0.2
END
SCENARIO s
  C1: (f_syn, a, b, RECV)
  C2: (f_ack, a, b, RECV)
  (TRUE) >> ENABLE_CNTR(C1); ENABLE_CNTR(C2);
  ((C1 = 1)) >> STOP;
  ((C2 = 1)) >> STOP;
END
)";
  CompileOptions opts;
  opts.lint = true;
  CompileResult r = check_script(kOverlap, opts);
  EXPECT_TRUE(r.ok()) << dump(r.diagnostics);
  EXPECT_TRUE(std::any_of(
      r.diagnostics.begin(), r.diagnostics.end(),
      [](const Diagnostic& d) { return d.rule == "overlapping-filters"; }))
      << dump(r.diagnostics);
}

// --- interval abstract domain ----------------------------------------------

TEST(IntervalDomain, RelOpDefiniteCases) {
  using core::RelOp;
  // [0,5] > [6,9] is definitely false; [7,9] > [0,5] definitely true.
  EXPECT_EQ(eval_rel_interval(RelOp::kGt, {0, 5}, {6, 9}), Truth::kFalse);
  EXPECT_EQ(eval_rel_interval(RelOp::kGt, {7, 9}, {0, 5}), Truth::kTrue);
  EXPECT_EQ(eval_rel_interval(RelOp::kGt, {0, 9}, {0, 5}), Truth::kUnknown);
  // Point intervals decide equality exactly.
  EXPECT_EQ(eval_rel_interval(RelOp::kEq, {4, 4}, {4, 4}), Truth::kTrue);
  EXPECT_EQ(eval_rel_interval(RelOp::kEq, {4, 4}, {5, 5}), Truth::kFalse);
  EXPECT_EQ(eval_rel_interval(RelOp::kEq, {0, 5}, {3, 8}), Truth::kUnknown);
  // Disjoint intervals are definitely unequal.
  EXPECT_EQ(eval_rel_interval(RelOp::kNe, {0, 2}, {5, 9}), Truth::kTrue);
  // +inf sentinel: an unbounded event counter can always exceed a constant.
  EXPECT_EQ(eval_rel_interval(RelOp::kGt, {0, kIntervalPosInf}, {1000, 1000}),
            Truth::kUnknown);
  EXPECT_EQ(eval_rel_interval(RelOp::kGe, {0, kIntervalPosInf}, {0, 0}),
            Truth::kTrue);
}

// Property: the abstract verdict must agree with brute-force enumeration of
// every concrete pair.  kTrue ⇒ all pairs true, kFalse ⇒ all pairs false,
// kUnknown ⇒ at least one of each.
TEST(IntervalDomain, RelOpMatchesBruteForce) {
  Rng rng(0xf51147ull);
  constexpr core::RelOp kOps[] = {core::RelOp::kGt, core::RelOp::kLt,
                                  core::RelOp::kGe, core::RelOp::kLe,
                                  core::RelOp::kEq, core::RelOp::kNe};
  for (int iter = 0; iter < 2000; ++iter) {
    Interval a, b;
    a.lo = rng.range(-6, 6);
    a.hi = a.lo + rng.range(0, 5);
    b.lo = rng.range(-6, 6);
    b.hi = b.lo + rng.range(0, 5);
    const core::RelOp op = kOps[rng.below(6)];

    bool any_true = false, any_false = false;
    for (i64 x = a.lo; x <= a.hi; ++x)
      for (i64 y = b.lo; y <= b.hi; ++y)
        (core::eval_rel(op, x, y) ? any_true : any_false) = true;

    const Truth t = eval_rel_interval(op, a, b);
    if (t == Truth::kTrue) {
      EXPECT_TRUE(any_true && !any_false)
          << "op=" << core::to_string(op) << " a=[" << a.lo << "," << a.hi
          << "] b=[" << b.lo << "," << b.hi << "]";
    } else if (t == Truth::kFalse) {
      EXPECT_TRUE(any_false && !any_true)
          << "op=" << core::to_string(op) << " a=[" << a.lo << "," << a.hi
          << "] b=[" << b.lo << "," << b.hi << "]";
    } else {
      EXPECT_TRUE(any_true && any_false)
          << "op=" << core::to_string(op) << " a=[" << a.lo << "," << a.hi
          << "] b=[" << b.lo << "," << b.hi << "]";
    }
  }
}

// Soundness property for counter_value_interval: simulate random sequences
// of the actions that target a local counter; every reachable value must lie
// inside the computed interval.
TEST(IntervalDomain, LocalCounterIntervalIsSound) {
  Rng rng(0xc0ffeeull);
  for (int iter = 0; iter < 200; ++iter) {
    core::TableSet tables;
    core::CounterEntry cnt;
    cnt.name = "X";
    cnt.kind = core::CounterKind::kLocal;
    tables.counters.entries.push_back(cnt);

    // A random mix of ASSIGN/INCR/DECR/RESET actions on X.
    std::vector<core::ActionEntry> acts;
    const std::size_t n = 1 + rng.below(4);
    for (std::size_t i = 0; i < n; ++i) {
      core::ActionEntry a;
      a.counter = 0;
      switch (rng.below(4)) {
        case 0:
          a.kind = core::ActionKind::kAssignCntr;
          a.value = rng.range(-20, 20);
          break;
        case 1:
          a.kind = core::ActionKind::kIncrCntr;
          a.value = rng.range(1, 5);
          break;
        case 2:
          a.kind = core::ActionKind::kDecrCntr;
          a.value = rng.range(1, 5);
          break;
        default:
          a.kind = core::ActionKind::kResetCntr;
          break;
      }
      acts.push_back(a);
      tables.actions.entries.push_back(a);
    }

    const Interval iv = counter_value_interval(tables, 0);
    EXPECT_LE(iv.lo, 0) << "initial value 0 must be reachable";
    EXPECT_GE(iv.hi, 0) << "initial value 0 must be reachable";

    // Random concrete executions.
    for (int run = 0; run < 20; ++run) {
      i64 v = 0;
      const int steps = static_cast<int>(rng.below(12));
      for (int s = 0; s < steps; ++s) {
        const core::ActionEntry& a = acts[rng.below(acts.size())];
        switch (a.kind) {
          case core::ActionKind::kAssignCntr: v = a.value; break;
          case core::ActionKind::kIncrCntr: v += a.value; break;
          case core::ActionKind::kDecrCntr: v -= a.value; break;
          case core::ActionKind::kResetCntr: v = 0; break;
          default: break;
        }
        EXPECT_GE(v, iv.lo) << "value escaped interval floor";
        EXPECT_LE(v, iv.hi) << "value escaped interval ceiling";
      }
    }
  }
}

TEST(IntervalDomain, EventCountersAreUnbounded) {
  // Event counters range over [0, +inf) whether or not any rule enables
  // them — Fig 6 reads CNT_DATA without an ENABLE_CNTR and must not be
  // declared unsatisfiable.
  core::TableSet tables;
  core::CounterEntry cnt;
  cnt.name = "EVT";
  cnt.kind = core::CounterKind::kEvent;
  tables.counters.entries.push_back(cnt);
  const Interval iv = counter_value_interval(tables, 0);
  EXPECT_EQ(iv.lo, 0);
  EXPECT_EQ(iv.hi, kIntervalPosInf);
}

// --- lint_tables (no AST: deserialized table sets) -------------------------

TEST(LintTables, DuplicateNamesAreErrors) {
  core::TableSet tables;
  core::CounterEntry a, b;
  a.name = b.name = "CNT";
  tables.counters.entries.push_back(a);
  tables.counters.entries.push_back(b);
  std::vector<Diagnostic> diags = lint_tables(tables);
  EXPECT_TRUE(std::any_of(diags.begin(), diags.end(), [](const Diagnostic& d) {
    return d.rule == "duplicate-name" && d.severity == Severity::kError;
  })) << dump(diags);
}

TEST(LintTables, CleanTablesProduceNothing) {
  core::TableSet tables = compile_script(kGoodEcho);
  EXPECT_TRUE(lint_tables(tables).empty());
}

// --- rendering and JSON ----------------------------------------------------

TEST(DiagnosticOutput, RenderShowsSourceLineAndCaret) {
  const std::string src = read_corpus("duplicate_name.fsl");
  CompileOptions opts;
  opts.lint = true;
  CompileResult r = check_script(src, opts);
  ASSERT_FALSE(r.diagnostics.empty());
  const std::string out = render_diagnostics(src, r.diagnostics, "dup.fsl");
  EXPECT_NE(out.find("dup.fsl:5:3: error: [duplicate-name]"),
            std::string::npos) << out;
  EXPECT_NE(out.find("udp_req:"), std::string::npos) << out;
  EXPECT_NE(out.find('^'), std::string::npos) << out;
}

TEST(DiagnosticOutput, JsonCarriesRuleAndCounts) {
  std::vector<Diagnostic> diags;
  diags.push_back({{3, 7}, "boom", Severity::kError, "shadowed-filter"});
  diags.push_back({{9, 1}, "meh", Severity::kWarning, "dead-symbol"});
  const std::string json = diagnostics_to_json(diags);
  EXPECT_NE(json.find("\"type\":\"fsl_diagnostics\""), std::string::npos);
  EXPECT_NE(json.find("\"errors\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"warnings\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rule\":\"shadowed-filter\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":3"), std::string::npos);
  EXPECT_NE(json.find("\"col\":7"), std::string::npos);
}

}  // namespace
}  // namespace vwire::fsl
