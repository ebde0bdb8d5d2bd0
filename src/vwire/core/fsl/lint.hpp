// FSL static analysis (lint).
//
// Checks a parsed script together with its compiled six-table form for
// problems the compiler's name resolution cannot see: unreachable filters,
// dead symbols, conditions that can never (or always) fire, conflicting
// actions on one trigger, cross-node counter feedback cycles, and scenarios
// with no termination path.
//
// Rule catalogue (severity in parentheses):
//   shadowed-filter         (error)   later filter fully subsumed by an
//                                     earlier one — first match wins, so it
//                                     can never classify a packet
//   unsatisfiable-filter    (error)   a filter whose own tuples demand
//                                     conflicting values for the same bits
//   overlapping-filters     (warning) two filters can match the same packet;
//                                     classification depends on order
//   unbound-variable        (warning) VAR declared but never used by a
//                                     filter (the unknown-VAR case is a
//                                     compile error with the same rule id)
//   dead-symbol             (warning) filter / node / counter that feeds no
//                                     counter, condition or action
//   unsatisfiable-condition (error)   condition provably false under
//                                     interval abstraction of counter values
//   always-true-condition   (warning) condition with at least one term that
//                                     is provably always true ((TRUE) is
//                                     exempt — it is idiomatic setup)
//   never-enabled-counter   (warning) event counter read by a condition but
//                                     never ENABLE_CNTR/ASSIGN_CNTR'd — it
//                                     can never count
//   conflicting-actions     (error)   DROP plus another packet fault on the
//                                     same (filter, src, dst, direction) in
//                                     one rule
//   cross-node-cycle        (warning) counter feedback cycle whose counters
//                                     live on more than one node —
//                                     distributed evaluation may race
//   no-stop                 (warning) no STOP/FAIL action and no scenario
//                                     timeout: the run cannot end by itself
//   duplicate-name          (error)   duplicate names inside a deserialized
//                                     table set (lint_tables)
#pragma once

#include <limits>

#include "vwire/core/fsl/ast.hpp"

namespace vwire::fsl {

// --- interval abstract domain (exposed for tests) --------------------------

/// Closed integer interval; i64 min/max act as -inf/+inf sentinels.
struct Interval {
  i64 lo{0};
  i64 hi{0};
};

inline constexpr i64 kIntervalNegInf = std::numeric_limits<i64>::min();
inline constexpr i64 kIntervalPosInf = std::numeric_limits<i64>::max();

/// Saturating interval addition: clamps at the ±inf sentinels instead of
/// wrapping.  Widening a bound by a script constant (INCR_CNTR with a value
/// near i64 max, or repeated widening steps in the verifier) must never
/// overflow past a sentinel — signed wrap is UB and would flip an interval's
/// order, turning an over-approximation into an under-approximation.
i64 interval_sat_add(i64 a, i64 b);

/// Both bounds shifted by `delta` with saturation; ±inf absorb.
Interval interval_offset(Interval iv, i64 delta);

/// Three-valued truth for abstract evaluation.
enum class Truth : u8 { kFalse, kTrue, kUnknown };

/// Kleene logic over Truth, for core::eval_postfix: lint's interval domain
/// and fsl::mc's abstract states evaluate conditions with it.
struct TruthLogic {
  using Value = Truth;
  static constexpr Truth kTrue = Truth::kTrue;
  static Truth negate(Truth x) {
    if (x == Truth::kUnknown) return x;
    return x == Truth::kTrue ? Truth::kFalse : Truth::kTrue;
  }
  static Truth conj(Truth a, Truth b) {
    if (a == Truth::kFalse || b == Truth::kFalse) return Truth::kFalse;
    return a == Truth::kTrue && b == Truth::kTrue ? Truth::kTrue
                                                  : Truth::kUnknown;
  }
  static Truth disj(Truth a, Truth b) {
    if (a == Truth::kTrue || b == Truth::kTrue) return Truth::kTrue;
    return a == Truth::kFalse && b == Truth::kFalse ? Truth::kFalse
                                                    : Truth::kUnknown;
  }
};

/// Abstract comparison: definitely-true / definitely-false over all
/// concrete value pairs drawn from the intervals, else unknown.
Truth eval_rel_interval(core::RelOp op, Interval a, Interval b);

/// Over-approximation of every value counter `id` can take at run time:
/// event counters count arbitrarily high; local counters only move through
/// the ASSIGN/INCR/DECR/RESET/SET_CURTIME/ELAPSED_TIME actions that target
/// them.
Interval counter_value_interval(const core::TableSet& tables,
                                core::CounterId id);

/// Abstract truth of condition `id` under counter_value_interval.
Truth eval_condition_interval(const core::TableSet& tables, core::CondId id);

// --- entry points ----------------------------------------------------------

/// Runs every lint pass over a script and its compiled tables.  The tables
/// must come from a clean compile of `script` (the passes rely on the 1:1
/// declaration-order correspondence between AST nodes and table entries for
/// source locations).  Returned diagnostics are sorted by location.
std::vector<Diagnostic> lint_script(const AstScript& script,
                                    const core::TableSet& tables);

/// Structural checks for a table set alone (e.g. deserialized from the
/// wire, where no AST exists): duplicate filter/node/counter names resolve
/// to the first entry and silently hide the rest.
std::vector<Diagnostic> lint_tables(const core::TableSet& tables);

}  // namespace vwire::fsl
