#include "vwire/core/fsl/lint.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>

namespace vwire::fsl {

namespace {

using core::ActionEntry;
using core::ActionKind;
using core::CondInstr;
using core::CounterEntry;
using core::CounterId;
using core::kInvalidId;
using core::NodeId;
using core::TableSet;

// --- filter shape analysis -------------------------------------------------

/// Per-byte constraint accumulated over a filter's concrete tuples:
/// "byte & mask == value" (value stored pre-masked).
struct ByteCon {
  u8 mask{0};
  u8 value{0};
};

/// A filter's match set abstracted to per-byte constraints.  Variable
/// tuples only further restrict the match set, so ignoring their bytes
/// keeps subset/overlap reasoning sound in one direction each: a shape can
/// soundly be proven a SUBSET only against a var-free shape, and two shapes
/// whose concrete constraints conflict are definitely disjoint.
struct FilterShape {
  std::map<u16, ByteCon> bytes;
  bool has_var{false};
  bool unsat{false};
};

FilterShape shape_of(const core::FilterEntry& f) {
  FilterShape s;
  for (const core::FilterTuple& tp : f.tuples) {
    if (tp.is_var()) {
      s.has_var = true;
      continue;
    }
    for (u16 b = 0; b < tp.length; ++b) {
      int shift = 8 * (tp.length - 1 - b);
      u8 mb = static_cast<u8>(tp.mask >> shift);
      u8 vb = static_cast<u8>((tp.pattern & tp.mask) >> shift);
      if (mb == 0) continue;
      ByteCon& c = s.bytes[static_cast<u16>(tp.offset + b)];
      if ((c.mask & mb & (c.value ^ vb)) != 0) s.unsat = true;
      c.mask |= mb;
      c.value |= static_cast<u8>(vb & mb);
    }
  }
  return s;
}

/// Every packet matching `later` also matches `earlier`?  Sound only when
/// `earlier` is var-free: `later`'s concrete constraints over-approximate
/// its match set, so if they already force `earlier`'s constraints, the
/// true match set (possibly shrunk further by vars) is still contained.
bool shadows(const FilterShape& earlier, const FilterShape& later) {
  if (earlier.has_var || earlier.unsat || later.unsat) return false;
  for (const auto& [off, ce] : earlier.bytes) {
    auto it = later.bytes.find(off);
    if (it == later.bytes.end()) return false;
    const ByteCon& cl = it->second;
    if ((cl.mask & ce.mask) != ce.mask) return false;
    if (((cl.value ^ ce.value) & ce.mask) != 0) return false;
  }
  return true;
}

/// Can some packet satisfy both shapes' concrete constraints?
bool may_overlap(const FilterShape& a, const FilterShape& b) {
  if (a.unsat || b.unsat) return false;
  for (const auto& [off, ca] : a.bytes) {
    auto it = b.bytes.find(off);
    if (it == b.bytes.end()) continue;
    const ByteCon& cb = it->second;
    if ((ca.mask & cb.mask & (ca.value ^ cb.value)) != 0) return false;
  }
  return true;
}

void check_filters(const AstScript& script, const TableSet& t,
                   std::vector<Diagnostic>& out) {
  const auto& entries = t.filters.entries;
  if (entries.size() != script.filters.size()) return;
  std::vector<FilterShape> shapes;
  shapes.reserve(entries.size());
  for (const auto& e : entries) shapes.push_back(shape_of(e));

  for (std::size_t j = 0; j < entries.size(); ++j) {
    if (shapes[j].unsat) {
      out.push_back({script.filters[j].loc,
                     "filter '" + entries[j].name +
                         "' can never match: its tuples demand conflicting "
                         "values for the same bits",
                     Severity::kError, "unsatisfiable-filter"});
      continue;
    }
    for (std::size_t i = 0; i < j; ++i) {
      if (shadows(shapes[i], shapes[j])) {
        out.push_back({script.filters[j].loc,
                       "filter '" + entries[j].name +
                           "' is unreachable: every packet it matches is "
                           "classified first as '" + entries[i].name +
                           "' (filters match in declaration order)",
                       Severity::kError, "shadowed-filter"});
        break;  // one shadowing witness is enough
      }
      if (may_overlap(shapes[i], shapes[j])) {
        out.push_back({script.filters[j].loc,
                       "filters '" + entries[i].name + "' and '" +
                           entries[j].name +
                           "' can match the same packet; classification "
                           "follows declaration order",
                       Severity::kWarning, "overlapping-filters"});
      }
    }
  }
}

// --- symbol liveness -------------------------------------------------------

void check_vars(const AstScript& script, const TableSet& t,
                std::vector<Diagnostic>& out) {
  for (std::size_t v = 0; v < t.filters.var_names.size(); ++v) {
    bool used = false;
    for (const auto& f : t.filters.entries) {
      for (const auto& tp : f.tuples) {
        if (tp.is_var() && tp.var == v) used = true;
      }
    }
    if (!used) {
      out.push_back({SourceLoc{1, 1},
                     "VAR '" + t.filters.var_names[v] +
                         "' is never used by any filter",
                     Severity::kWarning, "unbound-variable"});
    }
  }
  (void)script;
}

void check_dead_symbols(const AstScript& script, const AstScenario* sc,
                        const TableSet& t, std::vector<Diagnostic>& out) {
  // Filters: referenced by an event counter or a packet fault.
  if (t.filters.entries.size() == script.filters.size()) {
    for (std::size_t f = 0; f < t.filters.entries.size(); ++f) {
      bool used = false;
      for (const auto& c : t.counters.entries) {
        if (c.kind == core::CounterKind::kEvent && c.filter == f) used = true;
      }
      for (const auto& a : t.actions.entries) {
        if (core::is_packet_fault(a.kind) && a.filter == f) used = true;
      }
      if (!used) {
        out.push_back({script.filters[f].loc,
                       "filter '" + t.filters.entries[f].name +
                           "' is never referenced by a counter or fault "
                           "action",
                       Severity::kWarning, "dead-symbol"});
      }
    }
  }
  // Nodes: referenced by a counter endpoint/home or an action target.
  if (t.nodes.entries.size() == script.nodes.size()) {
    for (std::size_t n = 0; n < t.nodes.entries.size(); ++n) {
      bool used = false;
      for (const auto& c : t.counters.entries) {
        if (c.kind == core::CounterKind::kEvent) {
          if (c.src_node == n || c.dst_node == n) used = true;
        } else if (c.home == n) {
          used = true;
        }
      }
      for (const auto& a : t.actions.entries) {
        if (core::is_packet_fault(a.kind) &&
            (a.src_node == n || a.dst_node == n)) {
          used = true;
        }
        if (a.kind == ActionKind::kFail && a.fail_node == n) used = true;
      }
      if (!used) {
        out.push_back({script.nodes[n].loc,
                       "node '" + t.nodes.entries[n].name +
                           "' is never referenced by a counter or action",
                       Severity::kWarning, "dead-symbol"});
      }
    }
  }
  // Counters: a counter nobody reads can affect nothing.
  if (sc != nullptr && t.counters.entries.size() == sc->counters.size()) {
    for (std::size_t c = 0; c < t.counters.entries.size(); ++c) {
      if (t.counters.entries[c].terms.empty()) {
        out.push_back({sc->counters[c].loc,
                       "counter '" + t.counters.entries[c].name +
                           "' is never read by any condition",
                       Severity::kWarning, "dead-symbol"});
      }
    }
  }
}

// --- condition satisfiability ---------------------------------------------

Interval operand_interval(const TableSet& t, const core::Operand& o) {
  if (o.is_counter) return counter_value_interval(t, o.counter);
  return {o.constant, o.constant};
}

void check_conditions(const AstScenario* sc, const TableSet& t,
                      std::vector<Diagnostic>& out) {
  if (sc == nullptr || t.conditions.entries.size() != sc->rules.size()) return;
  for (std::size_t c = 0; c < t.conditions.entries.size(); ++c) {
    const core::CondEntry& cond = t.conditions.entries[c];
    const bool has_term = std::any_of(
        cond.postfix.begin(), cond.postfix.end(),
        [](const CondInstr& in) { return in.op == core::BoolOp::kTerm; });
    Truth truth =
        eval_condition_interval(t, static_cast<core::CondId>(c));
    if (truth == Truth::kFalse) {
      out.push_back({sc->rules[c].loc,
                     "condition can never be true: no reachable counter "
                     "values satisfy it, so its actions never fire",
                     Severity::kError, "unsatisfiable-condition"});
    } else if (truth == Truth::kTrue && has_term) {
      out.push_back({sc->rules[c].loc,
                     "condition is always true; write (TRUE) if that is "
                     "intended",
                     Severity::kWarning, "always-true-condition"});
    }
  }
  // Event counters read by a condition must be enabled somewhere, or they
  // stay at zero forever (the engine only counts while enabled).
  if (t.counters.entries.size() == sc->counters.size()) {
    for (std::size_t c = 0; c < t.counters.entries.size(); ++c) {
      const CounterEntry& cnt = t.counters.entries[c];
      if (cnt.kind != core::CounterKind::kEvent || cnt.terms.empty()) {
        continue;
      }
      bool enabled = false;
      for (const ActionEntry& a : t.actions.entries) {
        if (a.counter == c && (a.kind == ActionKind::kEnableCntr ||
                               a.kind == ActionKind::kAssignCntr)) {
          enabled = true;
        }
      }
      if (!enabled) {
        out.push_back({sc->counters[c].loc,
                       "event counter '" + cnt.name +
                           "' is read by a condition but never enabled "
                           "(ENABLE_CNTR/ASSIGN_CNTR); it will stay 0",
                       Severity::kWarning, "never-enabled-counter"});
      }
    }
  }
}

// --- conflicting actions ---------------------------------------------------

void check_conflicting_actions(const AstScenario* sc, const TableSet& t,
                               std::vector<Diagnostic>& out) {
  if (sc == nullptr || t.conditions.entries.size() != sc->rules.size()) return;
  for (std::size_t c = 0; c < t.conditions.entries.size(); ++c) {
    const auto& actions = t.conditions.entries[c].actions;
    for (std::size_t j = 0; j < actions.size(); ++j) {
      const ActionEntry& later = t.actions.entries[actions[j]];
      if (!core::is_packet_fault(later.kind)) continue;
      for (std::size_t i = 0; i < j; ++i) {
        const ActionEntry& first = t.actions.entries[actions[i]];
        if (!core::is_packet_fault(first.kind)) continue;
        bool same_flow = first.filter == later.filter &&
                         first.src_node == later.src_node &&
                         first.dst_node == later.dst_node &&
                         first.dir == later.dir;
        bool one_drops = (first.kind == ActionKind::kDrop) !=
                         (later.kind == ActionKind::kDrop);
        if (same_flow && one_drops) {
          SourceLoc loc = sc->rules[c].loc;
          if (j < sc->rules[c].actions.size()) {
            loc = sc->rules[c].actions[j].loc;
          }
          out.push_back({loc,
                         std::string(core::to_string(first.kind)) + " and " +
                             core::to_string(later.kind) +
                             " target the same packets in one rule; dropped "
                             "packets cannot also be " +
                             (later.kind == ActionKind::kDrop ? "dropped"
                                                              : "faulted"),
                         Severity::kError, "conflicting-actions"});
        }
      }
    }
  }
}

// --- fault modifiers ---------------------------------------------------------

/// RATE(0)/RATE(1)/PROB(1.0) pass every matching packet through, exactly
/// like the unmodified action — almost certainly a misunderstanding of the
/// modifier (e.g. expecting RATE(1) to mean "once").
void check_modifiers(const AstScenario* sc, std::vector<Diagnostic>& out) {
  if (sc == nullptr) return;
  for (const AstRule& r : sc->rules) {
    for (const AstAction& a : r.actions) {
      if (a.mod == AstAction::ModKind::kRate && a.mod_rate <= 1) {
        out.push_back({a.mod_loc,
                       "RATE(" + std::to_string(a.mod_rate) +
                           ") is a no-op: the fault still fires on every "
                           "matching packet; use RATE(2) or higher, or drop "
                           "the modifier",
                       Severity::kWarning, "modifier-no-op"});
      } else if (a.mod == AstAction::ModKind::kProb && a.mod_prob >= 1.0) {
        out.push_back({a.mod_loc,
                       "PROB(1.0) is a no-op: the fault still fires on "
                           "every matching packet; use a probability below "
                           "1, or drop the modifier",
                       Severity::kWarning, "modifier-no-op"});
      }
    }
  }
}

// --- cross-node counter cycles ---------------------------------------------

/// Counters read by a condition's postfix program.
std::set<CounterId> cond_reads(const TableSet& t, const core::CondEntry& c) {
  std::set<CounterId> reads;
  for (const CondInstr& in : c.postfix) {
    if (in.op != core::BoolOp::kTerm) continue;
    const core::TermEntry& term = t.terms.entries[in.term];
    if (term.lhs.is_counter) reads.insert(term.lhs.counter);
    if (term.rhs.is_counter) reads.insert(term.rhs.counter);
  }
  return reads;
}

void check_cross_node_cycles(const AstScenario* sc, const TableSet& t,
                             std::vector<Diagnostic>& out) {
  if (sc == nullptr) return;
  const std::size_t n = t.counters.entries.size();
  if (n == 0 || n != sc->counters.size()) return;
  // counter -> counters its value can influence (read triggers write).
  std::vector<std::set<CounterId>> adj(n);
  for (const core::CondEntry& cond : t.conditions.entries) {
    std::set<CounterId> reads = cond_reads(t, cond);
    for (core::ActionId aid : cond.actions) {
      const ActionEntry& a = t.actions.entries[aid];
      if (a.counter == kInvalidId) continue;
      for (CounterId r : reads) adj[r].insert(a.counter);
    }
  }
  // Iterative reachability: cycle(i) iff i reaches itself through >=1 edge.
  // Tiny tables make the O(n^2) closure plenty fast.
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (std::size_t i = 0; i < n; ++i) {
    for (CounterId j : adj[i]) reach[i][j] = true;
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!reach[i][k]) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (reach[k][j]) reach[i][j] = true;
      }
    }
  }
  // Group mutually-reachable counters (SCCs with a cycle) and warn when one
  // spans more than one home node.
  std::vector<bool> reported(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    if (reported[i] || !reach[i][i]) continue;
    std::vector<CounterId> scc;
    std::set<NodeId> homes;
    for (std::size_t j = 0; j < n; ++j) {
      if (reach[i][j] && reach[j][i] && reach[j][j]) {
        scc.push_back(static_cast<CounterId>(j));
        reported[j] = true;
        homes.insert(t.counters.entries[j].home);
      }
    }
    if (scc.size() < 2 || homes.size() < 2) continue;
    std::string names;
    for (CounterId id : scc) {
      if (!names.empty()) names += ", ";
      names += t.counters.entries[id].name;
    }
    out.push_back({sc->counters[scc.front()].loc,
                   "counters " + names +
                       " form a feedback cycle spanning " +
                       std::to_string(homes.size()) +
                       " nodes; distributed evaluation of this loop is "
                       "subject to notification latency and may race",
                   Severity::kWarning, "cross-node-cycle"});
  }
}

// --- termination -----------------------------------------------------------

void check_termination(const AstScenario* sc, const TableSet& t,
                       std::vector<Diagnostic>& out) {
  if (sc == nullptr) return;
  if (t.inactivity_timeout.ns > 0) return;
  for (const ActionEntry& a : t.actions.entries) {
    if (a.kind == ActionKind::kStop || a.kind == ActionKind::kFail) return;
  }
  out.push_back({sc->loc,
                 "scenario '" + t.scenario_name +
                     "' has no STOP or FAIL action and no timeout; the run "
                     "can only end externally",
                 Severity::kWarning, "no-stop"});
}

}  // namespace

// --- interval domain -------------------------------------------------------

i64 interval_sat_add(i64 a, i64 b) {
  // Sentinels absorb: ±inf plus any finite delta stays ±inf.  Without this
  // (and the overflow clamp below) widening a bound that sits at a sentinel
  // would wrap, and a wrapped bound inverts the interval — the abstraction
  // silently stops being an over-approximation.
  if (a == kIntervalPosInf || a == kIntervalNegInf) return a;
  if (b == kIntervalPosInf || b == kIntervalNegInf) return b;
  i64 out = 0;
  if (__builtin_add_overflow(a, b, &out)) {
    return b > 0 ? kIntervalPosInf : kIntervalNegInf;
  }
  return out;
}

Interval interval_offset(Interval iv, i64 delta) {
  return Interval{interval_sat_add(iv.lo, delta),
                  interval_sat_add(iv.hi, delta)};
}

Truth eval_rel_interval(core::RelOp op, Interval a, Interval b) {
  switch (op) {
    case core::RelOp::kGt:
      if (a.lo > b.hi) return Truth::kTrue;
      if (a.hi <= b.lo) return Truth::kFalse;
      return Truth::kUnknown;
    case core::RelOp::kLt:
      if (a.hi < b.lo) return Truth::kTrue;
      if (a.lo >= b.hi) return Truth::kFalse;
      return Truth::kUnknown;
    case core::RelOp::kGe:
      if (a.lo >= b.hi) return Truth::kTrue;
      if (a.hi < b.lo) return Truth::kFalse;
      return Truth::kUnknown;
    case core::RelOp::kLe:
      if (a.hi <= b.lo) return Truth::kTrue;
      if (a.lo > b.hi) return Truth::kFalse;
      return Truth::kUnknown;
    case core::RelOp::kEq:
      if (a.lo == a.hi && b.lo == b.hi && a.lo == b.lo) return Truth::kTrue;
      if (a.hi < b.lo || b.hi < a.lo) return Truth::kFalse;
      return Truth::kUnknown;
    case core::RelOp::kNe:
      return TruthLogic::negate(eval_rel_interval(core::RelOp::kEq, a, b));
  }
  return Truth::kUnknown;
}

Interval counter_value_interval(const core::TableSet& tables,
                                core::CounterId id) {
  Interval iv{0, 0};
  if (id >= tables.counters.entries.size()) return iv;
  if (tables.counters.entries[id].kind == core::CounterKind::kEvent) {
    // Counts every matching packet while enabled — unbounded above.
    iv.hi = kIntervalPosInf;
  }
  for (const core::ActionEntry& a : tables.actions.entries) {
    if (a.counter != id) continue;
    switch (a.kind) {
      case core::ActionKind::kAssignCntr:
        iv.lo = std::min(iv.lo, a.value);
        iv.hi = std::max(iv.hi, a.value);
        break;
      case core::ActionKind::kIncrCntr:
        iv.hi = kIntervalPosInf;
        break;
      case core::ActionKind::kDecrCntr:
        iv.lo = kIntervalNegInf;
        break;
      case core::ActionKind::kSetCurtime:
      case core::ActionKind::kElapsedTime:
        iv.hi = kIntervalPosInf;  // monotone clock values, >= 0
        break;
      default:
        break;  // RESET lands on 0 (already in range); ENABLE/DISABLE
                // gate counting without writing a value
    }
  }
  return iv;
}

Truth eval_condition_interval(const core::TableSet& tables,
                              core::CondId id) {
  if (id >= tables.conditions.entries.size()) return Truth::kUnknown;
  const auto& prog = tables.conditions.entries[id].postfix;
  std::vector<Truth> stack(prog.size());
  auto leaf = [&tables](core::TermId t) {
    if (t >= tables.terms.entries.size()) return Truth::kUnknown;
    const core::TermEntry& term = tables.terms.entries[t];
    return eval_rel_interval(term.op, operand_interval(tables, term.lhs),
                             operand_interval(tables, term.rhs));
  };
  return core::eval_postfix<TruthLogic>(prog, leaf, stack)
      .value_or(Truth::kUnknown);
}

// --- entry points ----------------------------------------------------------

std::vector<Diagnostic> lint_script(const AstScript& script,
                                    const core::TableSet& tables) {
  std::vector<Diagnostic> out;
  const AstScenario* sc = nullptr;
  for (const AstScenario& s : script.scenarios) {
    if (s.name == tables.scenario_name) {
      sc = &s;
      break;
    }
  }
  check_filters(script, tables, out);
  check_vars(script, tables, out);
  check_dead_symbols(script, sc, tables, out);
  check_conditions(sc, tables, out);
  check_conflicting_actions(sc, tables, out);
  check_modifiers(sc, out);
  check_cross_node_cycles(sc, tables, out);
  check_termination(sc, tables, out);
  sort_diagnostics(out);
  return out;
}

std::vector<Diagnostic> lint_tables(const core::TableSet& tables) {
  std::vector<Diagnostic> out;
  auto dup_check = [&](const std::string& what, const std::string& name,
                       std::set<std::string>& seen) {
    if (!seen.insert(name).second) {
      out.push_back({SourceLoc{0, 0},
                     "duplicate " + what + " '" + name +
                         "' in table set: lookups silently resolve to the "
                         "first entry",
                     Severity::kError, "duplicate-name"});
    }
  };
  std::set<std::string> filters, nodes, counters;
  for (const auto& e : tables.filters.entries) {
    dup_check("packet type", e.name, filters);
  }
  for (const auto& e : tables.nodes.entries) dup_check("node", e.name, nodes);
  for (const auto& e : tables.counters.entries) {
    dup_check("counter", e.name, counters);
  }
  std::set<std::string> macs;
  for (const auto& e : tables.nodes.entries) {
    if (!macs.insert(e.mac.to_string()).second) {
      out.push_back({SourceLoc{0, 0},
                     "nodes share MAC address " + e.mac.to_string() +
                         "; packet attribution is ambiguous",
                     Severity::kWarning, "duplicate-name"});
    }
  }
  return out;
}

}  // namespace vwire::fsl
