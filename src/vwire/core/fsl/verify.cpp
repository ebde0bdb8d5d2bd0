// fsl::mc — explicit-state model checker over the compiled tables
// (header: verify.hpp, design: DESIGN.md §13).
//
// Structure: `Checker` explores the product automaton breadth-first.  One
// transition simulates one packet event end to end exactly in the engine's
// order (classify/count with eligibility snapshotted before the bump,
// cascade rising edges, then the level-triggered fault phase — SEND side
// at the source, RECV side at the destination unless a DROP consumed the
// packet).  Nondeterminism (PROB draws, comparisons the value domain
// cannot decide) is enumerated by re-running the simulation under every
// choice prefix, so the simulation itself stays straight-line code.
#include "vwire/core/fsl/verify.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "vwire/core/fsl/lint.hpp"
#include "vwire/obs/json.hpp"

namespace vwire::fsl::mc {

namespace {

using core::ActionEntry;
using core::ActionId;
using core::ActionKind;
using core::CondId;
using core::CounterId;
using core::FilterId;
using core::NodeId;
using core::RelOp;
using core::TableSet;
using core::kInvalidId;

constexpr u32 kRoot = 0xffffffffu;
constexpr u16 kNoFlow = 0xffff;

/// One physical packet the checker can inject: every (filter, src, dst)
/// triple some event counter or packet-fault action cares about.
struct Flow {
  FilterId filter{kInvalidId};
  NodeId src{kInvalidId};
  NodeId dst{kInvalidId};

  bool operator==(const Flow& o) const {
    return filter == o.filter && src == o.src && dst == o.dst;
  }
};

/// One executed action on a transition: a rising-edge firing (fault ==
/// false) or a level-triggered fault application (fault == true).
struct Label {
  CondId cond{kInvalidId};
  ActionId action{kInvalidId};
  bool fault{false};
};

struct AbsState {
  std::vector<i32> val;        ///< per counter, encoded (see Checker)
  std::vector<u8> enabled;     ///< per counter
  std::vector<u8> cond_true;   ///< per condition, last evaluated truth
  std::vector<u16> rate_phase; ///< per RATE-modified action
  std::vector<u8> failed;      ///< per node
  u8 stopped{0};

  std::string key() const {
    std::string k;
    k.reserve(val.size() * 4 + enabled.size() + cond_true.size() +
              rate_phase.size() * 2 + failed.size() + 1);
    for (i32 v : val) {
      const auto u = static_cast<u32>(v);
      k.push_back(static_cast<char>(u & 0xff));
      k.push_back(static_cast<char>((u >> 8) & 0xff));
      k.push_back(static_cast<char>((u >> 16) & 0xff));
      k.push_back(static_cast<char>((u >> 24) & 0xff));
    }
    k.append(enabled.begin(), enabled.end());
    k.append(cond_true.begin(), cond_true.end());
    for (u16 p : rate_phase) {
      k.push_back(static_cast<char>(p & 0xff));
      k.push_back(static_cast<char>((p >> 8) & 0xff));
    }
    k.append(failed.begin(), failed.end());
    k.push_back(static_cast<char>(stopped));
    return k;
  }
};

struct Edge {
  u32 from{kRoot};
  u32 to{0};
  u16 flow{kNoFlow};  ///< index into Checker::flows_; kNoFlow = init sweep
  bool nondet{false};
  std::vector<Label> labels;
};

/// Consumes pre-recorded nondeterministic choices; flags when the
/// simulation needs more than the prefix provides.
struct Chooser {
  const std::vector<u8>* seq{nullptr};
  std::size_t idx{0};
  bool overflow{false};
  bool used{false};

  bool choose() {
    used = true;
    if (idx < seq->size()) return (*seq)[idx++] != 0;
    overflow = true;
    return false;
  }
};

RelOp flip(RelOp op) {
  switch (op) {
    case RelOp::kGt: return RelOp::kLt;
    case RelOp::kLt: return RelOp::kGt;
    case RelOp::kGe: return RelOp::kLe;
    case RelOp::kLe: return RelOp::kGe;
    case RelOp::kEq:
    case RelOp::kNe: return op;
  }
  return op;
}

/// Truth of `op` given that the left side is definitely greater.
Truth rel_given_gt(RelOp op) {
  switch (op) {
    case RelOp::kGt:
    case RelOp::kGe:
    case RelOp::kNe: return Truth::kTrue;
    default: return Truth::kFalse;
  }
}

/// Truth of `op` given that the left side is definitely smaller.
Truth rel_given_lt(RelOp op) {
  switch (op) {
    case RelOp::kLt:
    case RelOp::kLe:
    case RelOp::kNe: return Truth::kTrue;
    default: return Truth::kFalse;
  }
}

class Checker {
 public:
  Checker(const TableSet& t, const VerifyOptions& opts) : t_(t), opts_(opts) {
    prepare();
  }

  VerifyResult run();

 private:
  struct Succ {
    AbsState st;
    std::vector<Label> labels;
    bool nondet{false};
  };

  // --- value domain --------------------------------------------------------
  // Concrete values live in [-bound_, bound_]; top_/bot_ encode "above" /
  // "below"; any_ encodes clock-valued counters (SET_CURTIME/ELAPSED_TIME)
  // whose magnitude the abstraction does not track at all.

  bool concrete(i32 v) const { return v >= -bound_ && v <= bound_; }

  i32 abs_const(i64 c) const {
    if (c > bound_) return top_;
    if (c < -bound_) return bot_;
    return static_cast<i32>(c);
  }

  i32 abs_add(i32 v, i64 d) const {
    if (v == any_) return any_;
    if (v == top_) return d >= 0 ? top_ : any_;
    if (v == bot_) return d <= 0 ? bot_ : any_;
    return abs_const(interval_sat_add(v, d));
  }

  Truth cmp_const(i32 a, RelOp op, i64 c) const {
    if (a == any_) return Truth::kUnknown;
    if (a == top_) {
      return c <= bound_ ? rel_given_gt(op) : Truth::kUnknown;
    }
    if (a == bot_) {
      return c >= -bound_ ? rel_given_lt(op) : Truth::kUnknown;
    }
    return core::eval_rel(op, a, c) ? Truth::kTrue : Truth::kFalse;
  }

  Truth cmp_abs(i32 a, RelOp op, i32 b) const {
    if (concrete(a) && concrete(b)) {
      return core::eval_rel(op, a, b) ? Truth::kTrue : Truth::kFalse;
    }
    if (concrete(b)) return cmp_const(a, op, b);
    if (concrete(a)) return cmp_const(b, flip(op), a);
    if (a == any_ || b == any_) return Truth::kUnknown;
    if (a == top_ && b == bot_) return rel_given_gt(op);
    if (a == bot_ && b == top_) return rel_given_lt(op);
    return Truth::kUnknown;  // TOP vs TOP / BOT vs BOT
  }

  // --- setup ---------------------------------------------------------------

  void prepare() {
    // Small-constant bound K: every constant a term compares against (or an
    // action writes) stays concrete, capped by max_constant so a pathological
    // script cannot force a huge explicit range.
    i64 k = 4;
    const i64 cap =
        std::min<i64>(std::max<i64>(opts_.max_constant, 4), 1 << 20);
    auto widen = [&k, cap](i64 c) {
      if (c < 0) c = c == std::numeric_limits<i64>::min() ? cap : -c;
      k = std::max(k, std::min(interval_sat_add(c, 1), cap));
    };
    for (const auto& te : t_.terms.entries) {
      if (!te.lhs.is_counter) widen(te.lhs.constant);
      if (!te.rhs.is_counter) widen(te.rhs.constant);
    }
    for (const auto& a : t_.actions.entries) {
      if (a.kind == ActionKind::kAssignCntr ||
          a.kind == ActionKind::kIncrCntr ||
          a.kind == ActionKind::kDecrCntr) {
        widen(a.value);
      }
    }
    bound_ = static_cast<i32>(k + 1);
    top_ = bound_ + 1;
    bot_ = -(bound_ + 1);
    any_ = bound_ + 2;

    rate_index_.assign(t_.actions.entries.size(), kInvalidId);
    u16 nrate = 0;
    for (std::size_t a = 0; a < t_.actions.entries.size(); ++a) {
      if (t_.actions.entries[a].rate_n >= 2) rate_index_[a] = nrate++;
    }
    nrate_ = nrate;

    auto add_flow = [this](FilterId f, NodeId s, NodeId d) {
      if (f == kInvalidId || s == kInvalidId || d == kInvalidId) return;
      Flow fl{f, s, d};
      if (std::find(flows_.begin(), flows_.end(), fl) == flows_.end()) {
        flows_.push_back(fl);
      }
    };
    for (const auto& ce : t_.counters.entries) {
      if (ce.kind == core::CounterKind::kEvent) {
        add_flow(ce.filter, ce.src_node, ce.dst_node);
      }
    }
    for (const auto& a : t_.actions.entries) {
      if (core::is_packet_fault(a.kind)) {
        add_flow(a.filter, a.src_node, a.dst_node);
      }
    }
  }

  AbsState zero_state() const {
    AbsState s;
    s.val.assign(t_.counters.entries.size(), 0);
    s.enabled.assign(t_.counters.entries.size(), 0);
    for (std::size_t c = 0; c < t_.counters.entries.size(); ++c) {
      // Local counters have no enable gate; event counters start disabled
      // until ENABLE_CNTR/ASSIGN_CNTR arms them.
      if (t_.counters.entries[c].kind == core::CounterKind::kLocal) {
        s.enabled[c] = 1;
      }
    }
    s.cond_true.assign(t_.conditions.entries.size(), 0);
    s.rate_phase.assign(nrate_, 0);
    s.failed.assign(t_.nodes.entries.size(), 0);
    return s;
  }

  // --- one-event simulation ------------------------------------------------

  void write_val(AbsState& st, CounterId c, i32 v) {
    st.val[c] = v;
    // The compiler's dependency fan-out: the conditions reading counter c.
    for (core::TermId t : t_.counters.entries[c].terms) {
      for (CondId d : t_.terms.entries[t].conds) resolved_[d] = -1;
    }
  }

  Truth eval_cond(const AbsState& st, CondId id) const {
    const auto& prog = t_.conditions.entries[id].postfix;
    std::vector<Truth> stack(prog.size());
    auto leaf = [&](core::TermId term) {
      if (term >= t_.terms.entries.size()) return Truth::kUnknown;
      const core::TermEntry& te = t_.terms.entries[term];
      if (te.lhs.is_counter && te.rhs.is_counter) {
        return cmp_abs(st.val[te.lhs.counter], te.op, st.val[te.rhs.counter]);
      }
      if (te.lhs.is_counter) {
        return cmp_const(st.val[te.lhs.counter], te.op, te.rhs.constant);
      }
      if (te.rhs.is_counter) {
        return cmp_const(st.val[te.rhs.counter], flip(te.op),
                         te.lhs.constant);
      }
      return core::eval_rel(te.op, te.lhs.constant, te.rhs.constant)
                 ? Truth::kTrue
                 : Truth::kFalse;
    };
    return core::eval_postfix<TruthLogic>(prog, leaf, stack)
        .value_or(Truth::kUnknown);
  }

  bool cond_truth(const AbsState& st, CondId id, Chooser& ch) {
    Truth t = eval_cond(st, id);
    if (t != Truth::kUnknown) return t == Truth::kTrue;
    // The domain cannot decide: fork, but resolve each condition at most
    // once per event (until a dependency is written) so re-evaluation
    // inside the cascade loop does not flip-flop.
    if (resolved_[id] < 0) resolved_[id] = ch.choose() ? 1 : 0;
    return resolved_[id] == 1;
  }

  void fire(AbsState& st, CondId c, std::vector<Label>& labels) {
    for (ActionId a : t_.conditions.entries[c].actions) {
      const ActionEntry& e = t_.actions.entries[a];
      if (core::is_packet_fault(e.kind)) continue;  // level-triggered
      if (e.exec_node != kInvalidId && e.exec_node < st.failed.size() &&
          st.failed[e.exec_node] != 0) {
        continue;  // the engine that would execute this action is dead
      }
      labels.push_back({c, a, false});
      switch (e.kind) {
        case ActionKind::kAssignCntr:
          st.enabled[e.counter] = 1;  // ASSIGN arms event counters too
          write_val(st, e.counter, abs_const(e.value));
          break;
        case ActionKind::kEnableCntr:
          st.enabled[e.counter] = 1;
          break;
        case ActionKind::kDisableCntr:
          st.enabled[e.counter] = 0;
          break;
        case ActionKind::kIncrCntr:
          write_val(st, e.counter, abs_add(st.val[e.counter], e.value));
          break;
        case ActionKind::kDecrCntr:
          write_val(st, e.counter,
                    abs_add(st.val[e.counter],
                            e.value == std::numeric_limits<i64>::min()
                                ? std::numeric_limits<i64>::max()
                                : -e.value));
          break;
        case ActionKind::kResetCntr:
          write_val(st, e.counter, 0);
          break;
        case ActionKind::kSetCurtime:
        case ActionKind::kElapsedTime:
          write_val(st, e.counter, any_);  // clock-valued: untracked
          break;
        case ActionKind::kFail:
          if (e.fail_node < st.failed.size()) st.failed[e.fail_node] = 1;
          break;
        case ActionKind::kStop:
          st.stopped = 1;
          break;
        default:
          break;  // FLAG_ERROR: label only
      }
    }
  }

  void cascade(AbsState& st, std::vector<Label>& labels, Chooser& ch) {
    // Evaluate all conditions, fire rising edges, repeat until quiescent —
    // the same fixpoint the engine's dependency-driven cascade reaches,
    // with the same depth cap.
    for (int depth = 0; depth < 64; ++depth) {
      bool rose = false;
      for (CondId c = 0; c < t_.conditions.entries.size(); ++c) {
        const bool now = cond_truth(st, c, ch);
        if (now && st.cond_true[c] == 0) {
          st.cond_true[c] = 1;
          fire(st, c, labels);
          rose = true;
        } else {
          st.cond_true[c] = now ? 1 : 0;
        }
      }
      if (!rose) return;
    }
  }

  void count_side(AbsState& st, const Flow& f, net::Direction dir) {
    // Eligibility is snapshot before any bump: a counter enabled by this
    // same packet's cascade must not count it (engine rule).
    std::vector<CounterId> bump;
    for (std::size_t c = 0; c < t_.counters.entries.size(); ++c) {
      const core::CounterEntry& e = t_.counters.entries[c];
      if (e.kind != core::CounterKind::kEvent) continue;
      if (st.enabled[c] == 0) continue;
      if (e.filter != f.filter || e.src_node != f.src || e.dst_node != f.dst) {
        continue;
      }
      if (e.dir != dir) continue;
      if (e.home != kInvalidId && e.home < st.failed.size() &&
          st.failed[e.home] != 0) {
        continue;
      }
      bump.push_back(static_cast<CounterId>(c));
    }
    for (CounterId c : bump) write_val(st, c, abs_add(st.val[c], 1));
  }

  /// Level-triggered fault phase at one engine; at most one fault applies
  /// per packet per engine, in script order.
  void fault_phase(AbsState& st, const Flow& f, net::Direction dir,
                   std::vector<Label>& labels, Chooser& ch, bool* consumed,
                   int* copies, bool* nondet_prob) {
    for (std::size_t a = 0; a < t_.actions.entries.size(); ++a) {
      const ActionEntry& e = t_.actions.entries[a];
      if (!core::is_packet_fault(e.kind)) continue;
      if (e.filter != f.filter || e.src_node != f.src ||
          e.dst_node != f.dst || e.dir != dir) {
        continue;
      }
      if (e.exec_node != kInvalidId && e.exec_node < st.failed.size() &&
          st.failed[e.exec_node] != 0) {
        continue;
      }
      const CondId owner = e.cond;
      if (owner == kInvalidId || st.cond_true[owner] == 0) continue;
      if (e.rate_n >= 2) {
        const u16 ri = rate_index_[a];
        const u16 phase =
            static_cast<u16>((st.rate_phase[ri] + 1) % e.rate_n);
        st.rate_phase[ri] = phase;
        if (phase != 0) continue;  // not the Nth match yet
      } else if (e.prob < 1.0) {
        *nondet_prob = true;
        if (!ch.choose()) continue;
      }
      labels.push_back({owner, static_cast<ActionId>(a), true});
      if (dir == net::Direction::kSend) {
        if (e.kind == ActionKind::kDrop) *consumed = true;
        if (e.kind == ActionKind::kDup) *copies = 2;
      }
      return;  // one fault per packet per engine
    }
  }

  /// Simulates one event under a fixed choice prefix.  flow_idx < 0 is the
  /// arming sweep (conditions evaluated once from the all-false state).
  /// Returns false when the event cannot happen (crashed source).
  bool simulate(const AbsState& in, int flow_idx, Chooser& ch, Succ* out) {
    out->st = in;
    out->labels.clear();
    AbsState& st = out->st;
    resolved_.assign(t_.conditions.entries.size(), -1);

    if (flow_idx < 0) {
      cascade(st, out->labels, ch);
    } else {
      const Flow& f = flows_[flow_idx];
      if (f.src < st.failed.size() && st.failed[f.src] != 0) return false;
      bool consumed = false;
      int copies = 1;
      bool prob = false;
      count_side(st, f, net::Direction::kSend);
      cascade(st, out->labels, ch);
      fault_phase(st, f, net::Direction::kSend, out->labels, ch, &consumed,
                  &copies, &prob);
      if (!consumed && !(f.dst < st.failed.size() && st.failed[f.dst] != 0)) {
        // A SEND-side DUP put a twin on the wire: the destination counts
        // (and runs its fault phase for) each copy.
        for (int i = 0; i < copies; ++i) {
          bool sink_consumed = false;
          int sink_copies = 1;
          count_side(st, f, net::Direction::kRecv);
          cascade(st, out->labels, ch);
          fault_phase(st, f, net::Direction::kRecv, out->labels, ch,
                      &sink_consumed, &sink_copies, &prob);
        }
      }
      (void)prob;
    }
    out->nondet = ch.used;
    return true;
  }

  /// All successors of `in` under event `flow_idx`, enumerating every
  /// nondeterministic choice (PROB draws, undecidable comparisons).
  std::vector<Succ> successors(const AbsState& in, int flow_idx) {
    std::vector<Succ> out;
    std::vector<std::vector<u8>> prefixes;
    prefixes.push_back({});
    std::size_t runs = 0;
    while (!prefixes.empty()) {
      if (++runs > 128) {
        truncated_ = true;
        break;
      }
      std::vector<u8> seq = std::move(prefixes.back());
      prefixes.pop_back();
      Chooser ch;
      ch.seq = &seq;
      Succ s;
      const bool ok = simulate(in, flow_idx, ch, &s);
      if (ch.overflow) {
        if (seq.size() >= 8) {
          truncated_ = true;  // too many choice points in one event
          continue;
        }
        std::vector<u8> a = seq;
        a.push_back(0);
        seq.push_back(1);
        prefixes.push_back(std::move(a));
        prefixes.push_back(std::move(seq));
        continue;
      }
      if (ok) out.push_back(std::move(s));
    }
    return out;
  }

  // --- exploration + analyses (definitions below) --------------------------

  const TableSet& t_;
  VerifyOptions opts_;

  i32 bound_{0};
  i32 top_{0};
  i32 bot_{0};
  i32 any_{0};

  std::vector<Flow> flows_;
  std::vector<u16> rate_index_;
  u16 nrate_{0};

  std::vector<signed char> resolved_;  ///< per-event cache: -1 unresolved
  bool truncated_{false};

  std::vector<AbsState> states_;
  std::vector<Edge> edges_;
  std::vector<u32> parent_edge_;  ///< edge that first discovered a state

  Witness make_witness(u32 edge_idx, const Label& label) const;
  void fire_bounds_and_cycles(VerifyResult* res) const;
};

Witness Checker::make_witness(u32 edge_idx, const Label& label) const {
  Witness w;
  w.rule = label.cond;
  w.action = label.action;
  std::vector<u16> ev_flows;
  bool nondet = false;
  {
    const Edge& e = edges_[edge_idx];
    nondet = e.nondet;
    if (e.flow != kNoFlow) ev_flows.push_back(e.flow);
    u32 s = e.from;
    while (s != kRoot) {
      const Edge& pe = edges_[parent_edge_[s]];
      if (pe.flow != kNoFlow) ev_flows.push_back(pe.flow);
      nondet = nondet || pe.nondet;
      s = pe.from;
    }
  }
  std::reverse(ev_flows.begin(), ev_flows.end());
  w.probabilistic = nondet;
  for (u16 fi : ev_flows) {
    const Flow& f = flows_[fi];
    if (!w.events.empty() && w.events.back().filter == f.filter &&
        w.events.back().src == f.src && w.events.back().dst == f.dst) {
      ++w.events.back().count;
    } else {
      w.events.push_back({f.filter, f.src, f.dst, 1});
    }
  }
  return w;
}

void Checker::fire_bounds_and_cycles(VerifyResult* res) const {
  const std::size_t n = states_.size();
  // Adjacency over real states (init edges hang off the virtual root and
  // cannot be part of a cycle).
  std::vector<std::vector<u32>> out_edges(n);
  for (u32 e = 0; e < edges_.size(); ++e) {
    if (edges_[e].from != kRoot) out_edges[edges_[e].from].push_back(e);
  }

  // Iterative Tarjan SCC.
  std::vector<u32> comp(n, kRoot), low(n, 0), num(n, 0);
  std::vector<u8> on_stack(n, 0);
  std::vector<u32> stack;
  u32 counter = 1, ncomp = 0;
  struct Frame {
    u32 v;
    std::size_t next_edge;
  };
  for (u32 root = 0; root < n; ++root) {
    if (num[root] != 0) continue;
    std::vector<Frame> call;
    call.push_back({root, 0});
    num[root] = low[root] = counter++;
    stack.push_back(root);
    on_stack[root] = 1;
    while (!call.empty()) {
      Frame& fr = call.back();
      if (fr.next_edge < out_edges[fr.v].size()) {
        const u32 w = edges_[out_edges[fr.v][fr.next_edge++]].to;
        if (num[w] == 0) {
          num[w] = low[w] = counter++;
          stack.push_back(w);
          on_stack[w] = 1;
          call.push_back({w, 0});
        } else if (on_stack[w] != 0) {
          low[fr.v] = std::min(low[fr.v], num[w]);
        }
      } else {
        const u32 v = fr.v;
        call.pop_back();
        if (!call.empty()) {
          low[call.back().v] = std::min(low[call.back().v], low[v]);
        }
        if (low[v] == num[v]) {
          while (true) {
            const u32 w = stack.back();
            stack.pop_back();
            on_stack[w] = 0;
            comp[w] = ncomp;
            if (w == v) break;
          }
          ++ncomp;
        }
      }
    }
  }

  // Cycle census: which rules fire on an edge inside an SCC cycle
  // (including self-loops), and — for the livelock check — which rising
  // edges recur per component.
  std::vector<u8> rule_unbounded(t_.conditions.entries.size(), 0);
  std::vector<std::vector<CondId>> comp_rising(ncomp);
  for (const Edge& e : edges_) {
    if (e.from == kRoot || comp[e.from] != comp[e.to]) continue;
    for (const Label& l : e.labels) {
      rule_unbounded[l.cond] = 1;
      if (!l.fault) comp_rising[comp[e.from]].push_back(l.cond);
    }
  }

  // Fire bounds: longest path over the condensation DAG, per rule, with
  // edge weight = number of that rule's labels on the edge.  Tarjan emits
  // components in reverse topological order, so component ids ascending is
  // a valid processing order for edges comp[to] < comp[from]... not in
  // general; do a simple Kahn sort instead.
  std::vector<std::vector<u32>> comp_out(ncomp);
  std::vector<u32> indeg(ncomp, 0);
  for (u32 e = 0; e < edges_.size(); ++e) {
    if (edges_[e].from == kRoot) continue;
    const u32 a = comp[edges_[e].from], b = comp[edges_[e].to];
    if (a == b) continue;
    comp_out[a].push_back(e);
    ++indeg[b];
  }
  std::vector<u32> topo;
  topo.reserve(ncomp);
  for (u32 c = 0; c < ncomp; ++c) {
    if (indeg[c] == 0) topo.push_back(c);
  }
  for (std::size_t i = 0; i < topo.size(); ++i) {
    for (u32 e : comp_out[topo[i]]) {
      const u32 b = comp[edges_[e].to];
      if (--indeg[b] == 0) topo.push_back(b);
    }
  }

  for (RuleVerdict& rv : res->rules) {
    if (!rv.reachable()) {
      rv.fire_bound = 0;
      continue;
    }
    if (rule_unbounded[rv.rule] != 0) {
      rv.fire_bound = kUnbounded;
      continue;
    }
    // Base: labels on init edges land in the target's component.
    std::vector<u64> best(ncomp, 0);
    auto weight = [&](const Edge& e) {
      u64 w = 0;
      for (const Label& l : e.labels) {
        if (l.cond == rv.rule) ++w;
      }
      return w;
    };
    for (const Edge& e : edges_) {
      if (e.from == kRoot) {
        best[comp[e.to]] = std::max(best[comp[e.to]], weight(e));
      }
    }
    for (u32 c : topo) {
      for (u32 ei : comp_out[c]) {
        const Edge& e = edges_[ei];
        const u32 b = comp[e.to];
        best[b] = std::max(best[b], best[c] + weight(e));
      }
    }
    u64 bound = 0;
    for (u32 c = 0; c < ncomp; ++c) bound = std::max(bound, best[c]);
    rv.fire_bound = bound;
  }

  // Livelock: a reachable cycle on which rising edges of two or more
  // distinct rules recur, and the involved rules span two or more nodes —
  // the distributed generalization of lint's cross-node-cycle warning.
  int reported = 0;
  for (u32 c = 0; c < ncomp && reported < 4; ++c) {
    std::vector<CondId> rules = comp_rising[c];
    std::sort(rules.begin(), rules.end());
    rules.erase(std::unique(rules.begin(), rules.end()), rules.end());
    if (rules.size() < 2) continue;
    std::vector<NodeId> nodes;
    for (CondId r : rules) {
      for (NodeId nd : t_.conditions.entries[r].eval_nodes) {
        if (std::find(nodes.begin(), nodes.end(), nd) == nodes.end()) {
          nodes.push_back(nd);
        }
      }
    }
    if (nodes.size() < 2) continue;
    const core::CondEntry& first = t_.conditions.entries[rules[0]];
    std::string msg = "rules at ";
    for (std::size_t i = 0; i < rules.size(); ++i) {
      const core::CondEntry& ce = t_.conditions.entries[rules[i]];
      if (i != 0) msg += ", ";
      msg += "line " + std::to_string(ce.src_line);
    }
    msg += " re-fire each other in a reachable cycle across " +
           std::to_string(nodes.size()) +
           " nodes; distributed evaluation can livelock";
    res->diagnostics.push_back(Diagnostic{SourceLoc{first.src_line,
                                                    first.src_col},
                                          std::move(msg), Severity::kWarning,
                                          "fsl-verify-livelock"});
    ++reported;
  }
}

VerifyResult Checker::run() {
  VerifyResult res;
  const std::size_t nconds = t_.conditions.entries.size();

  std::unordered_map<std::string, u32> index;
  std::vector<u32> queue;
  std::size_t head = 0;
  bool capped = false;

  auto intern = [&](Succ&& s, u32 from, u16 flow) {
    const std::string k = s.st.key();
    auto it = index.find(k);
    u32 id;
    if (it == index.end()) {
      id = static_cast<u32>(states_.size());
      index.emplace(k, id);
      states_.push_back(std::move(s.st));
      parent_edge_.push_back(static_cast<u32>(edges_.size()));
      queue.push_back(id);
    } else {
      id = it->second;
    }
    edges_.push_back(Edge{from, id, flow, s.nondet, std::move(s.labels)});
  };

  for (Succ& s : successors(zero_state(), -1)) {
    intern(std::move(s), kRoot, kNoFlow);
  }
  while (head < queue.size()) {
    const u32 sid = queue[head++];
    if (states_[sid].stopped != 0) continue;  // terminal
    if (states_.size() >= opts_.max_states) {
      capped = true;
      break;
    }
    const AbsState cur = states_[sid];  // copy: states_ may reallocate
    for (u16 fi = 0; fi < flows_.size(); ++fi) {
      for (Succ& s : successors(cur, fi)) {
        intern(std::move(s), sid, fi);
      }
    }
  }

  res.states_explored = states_.size();
  res.complete = !capped && !truncated_;

  // Per-rule verdicts from edge labels.
  res.rules.resize(nconds);
  for (CondId c = 0; c < nconds; ++c) {
    RuleVerdict& rv = res.rules[c];
    rv.rule = c;
    rv.src_line = t_.conditions.entries[c].src_line;
    rv.src_col = t_.conditions.entries[c].src_col;
    rv.action_reachable.assign(t_.conditions.entries[c].actions.size(),
                               false);
  }
  for (const auto& a : t_.actions.entries) {
    if (a.kind == ActionKind::kStop) res.has_stop = true;
  }
  for (u32 e = 0; e < edges_.size(); ++e) {
    for (const Label& l : edges_[e].labels) {
      RuleVerdict& rv = res.rules[l.cond];
      const auto& acts = t_.conditions.entries[l.cond].actions;
      for (std::size_t i = 0; i < acts.size(); ++i) {
        if (acts[i] == l.action) rv.action_reachable[i] = true;
      }
      if (!rv.witness) rv.witness = make_witness(e, l);
      if (t_.actions.entries[l.action].kind == ActionKind::kStop &&
          !res.stop_reachable) {
        res.stop_reachable = true;
        res.stop_witness = make_witness(e, l);
      }
    }
  }

  fire_bounds_and_cycles(&res);

  // Diagnostics.  Unreachability verdicts are only sound when exploration
  // was exhaustive.
  if (res.complete) {
    // A rule can be dead two ways: its condition never becomes true, or the
    // condition does rise but every matching packet is claimed by an
    // earlier fault first (the engine applies one fault per packet per
    // engine, in script order) — distinguish them in the message.
    std::vector<u8> rose(nconds, 0);
    for (const AbsState& st : states_) {
      for (CondId c = 0; c < nconds; ++c) {
        if (st.cond_true[c] != 0) rose[c] = 1;
      }
    }
    for (const RuleVerdict& rv : res.rules) {
      if (rv.reachable()) continue;
      const bool shadowed = rose[rv.rule] != 0;
      res.diagnostics.push_back(Diagnostic{
          SourceLoc{rv.src_line, rv.src_col},
          shadowed
              ? "rule can never fire: its condition becomes true, but an "
                "earlier rule's fault always claims the matching packet "
                "first (one fault per packet per engine; " +
                    std::to_string(res.states_explored) + " states explored)"
              : "rule can never fire: no reachable state rises its "
                "condition (" +
                    std::to_string(res.states_explored) + " states explored)",
          Severity::kError, "fsl-verify-dead-rule"});
    }
    if (res.has_stop && !res.stop_reachable) {
      SourceLoc loc{};
      for (const auto& a : t_.actions.entries) {
        if (a.kind == ActionKind::kStop) {
          loc = SourceLoc{a.src_line, a.src_col};
          break;
        }
      }
      res.diagnostics.push_back(Diagnostic{
          loc,
          "scenario declares STOP but no event sequence reaches one: the "
          "run can only end by timeout",
          Severity::kWarning, "fsl-verify-no-stop-path"});
    }
    // Feasibility of syntactic action conflicts: lint flags DROP plus
    // another packet fault on one (filter, src, dst, dir) in the same rule;
    // if the shared trigger is unreachable the conflict cannot manifest.
    for (CondId c = 0; c < nconds; ++c) {
      const core::CondEntry& ce = t_.conditions.entries[c];
      for (std::size_t i = 0; i < ce.actions.size(); ++i) {
        const ActionEntry& ai = t_.actions.entries[ce.actions[i]];
        if (ai.kind != ActionKind::kDrop) continue;
        for (std::size_t j = 0; j < ce.actions.size(); ++j) {
          if (j == i) continue;
          const ActionEntry& aj = t_.actions.entries[ce.actions[j]];
          if (!core::is_packet_fault(aj.kind) ||
              aj.kind == ActionKind::kDrop) {
            continue;
          }
          if (ai.filter != aj.filter || ai.src_node != aj.src_node ||
              ai.dst_node != aj.dst_node || ai.dir != aj.dir) {
            continue;
          }
          if (!res.rules[c].reachable()) {
            res.diagnostics.push_back(Diagnostic{
                SourceLoc{aj.src_line, aj.src_col},
                "conflicting actions can never trigger: their rule is "
                "unreachable, so the DROP/" +
                    std::string(core::to_string(aj.kind)) +
                    " conflict cannot manifest",
                Severity::kNote, "fsl-verify-infeasible-conflict"});
          }
        }
      }
    }
  } else {
    res.diagnostics.push_back(Diagnostic{
        SourceLoc{0, 0},
        "state-space exploration capped at " +
            std::to_string(res.states_explored) +
            " states; unreachability verdicts suppressed",
        Severity::kNote, "fsl-verify-state-cap"});
  }

  sort_diagnostics(res.diagnostics);
  return res;
}

std::string name_of_filter(const TableSet& t, FilterId id) {
  return id < t.filters.entries.size() ? t.filters.entries[id].name
                                       : std::string("?");
}

std::string name_of_node(const TableSet& t, NodeId id) {
  return id < t.nodes.entries.size() ? t.nodes.entries[id].name
                                     : std::string("?");
}

}  // namespace

std::string Witness::to_json(const TableSet& tables) const {
  std::string out = "{\"v\":1,\"type\":\"verify_witness\",\"rule\":";
  out += std::to_string(rule);
  out += ",\"action\":";
  out += std::to_string(action);
  if (action < tables.actions.entries.size()) {
    out += ",\"kind\":\"";
    out += core::to_string(tables.actions.entries[action].kind);
    out += "\"";
  }
  out += ",\"probabilistic\":";
  out += probabilistic ? "true" : "false";
  out += ",\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const WitnessEvent& e = events[i];
    if (i != 0) out += ',';
    out += "\n {\"filter\":\"";
    out += obs::json_escape(name_of_filter(tables, e.filter));
    out += "\",\"src\":\"";
    out += obs::json_escape(name_of_node(tables, e.src));
    out += "\",\"dst\":\"";
    out += obs::json_escape(name_of_node(tables, e.dst));
    out += "\",\"count\":";
    out += std::to_string(e.count);
    out += "}";
  }
  out += "\n]}";
  return out;
}

Witness Witness::from_json(std::string_view text, const TableSet& tables) {
  const obs::JsonValue v = obs::JsonValue::parse(text);
  if (v.str("type") != "verify_witness") {
    throw std::runtime_error("not a verify_witness document");
  }
  Witness w;
  w.rule = static_cast<core::CondId>(v.uint("rule", kInvalidId));
  w.action = static_cast<core::ActionId>(v.uint("action", kInvalidId));
  w.probabilistic = v.boolean("probabilistic");
  for (const obs::JsonValue& ev : v.at("events").as_array()) {
    WitnessEvent e;
    e.filter = tables.filters.find(ev.str("filter"));
    e.src = tables.nodes.find(ev.str("src"));
    e.dst = tables.nodes.find(ev.str("dst"));
    e.count = static_cast<u32>(ev.uint("count", 1));
    if (e.filter == kInvalidId || e.src == kInvalidId ||
        e.dst == kInvalidId) {
      throw std::runtime_error("witness names unknown filter or node");
    }
    w.events.push_back(e);
  }
  return w;
}

std::string VerifyResult::to_json(const TableSet& tables) const {
  std::string out = "{\"v\":1,\"type\":\"fsl_verify\",\"complete\":";
  out += complete ? "true" : "false";
  out += ",\"states\":";
  out += std::to_string(states_explored);
  out += ",\"stop\":{\"declared\":";
  out += has_stop ? "true" : "false";
  out += ",\"reachable\":";
  out += stop_reachable ? "true" : "false";
  out += "},\"rules\":[";
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const RuleVerdict& rv = rules[i];
    if (i != 0) out += ',';
    out += "\n {\"rule\":";
    out += std::to_string(rv.rule);
    out += ",\"line\":";
    out += std::to_string(rv.src_line);
    out += ",\"col\":";
    out += std::to_string(rv.src_col);
    out += ",\"reachable\":";
    out += rv.reachable() ? "true" : "false";
    out += ",\"fire_bound\":";
    out += rv.fire_bound == kUnbounded ? std::string("\"unbounded\"")
                                       : std::to_string(rv.fire_bound);
    out += ",\"witness\":";
    out += rv.witness ? rv.witness->to_json(tables) : std::string("null");
    out += "}";
  }
  out += "\n],\"diagnostics\":";
  out += diagnostics_to_json(diagnostics);
  out += "}";
  return out;
}

VerifyResult verify_tables(const TableSet& tables, const VerifyOptions& opts) {
  return Checker(tables, opts).run();
}

}  // namespace vwire::fsl::mc
