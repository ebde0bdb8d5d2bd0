// Binary wire format for the table bundle.
//
// The control node "initializes the test nodes with the relevant data
// structures" (paper §3.2); faithfully, the tables travel over the
// simulated network as the payload of the control plane's INIT message, so
// every engine works from a deserialized copy, never from shared memory.
#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "vwire/core/tables/tables.hpp"

namespace vwire::core {

namespace {

constexpr u32 kMagic = 0x56575442;  // "VWTB"
// v2: ActionEntry grew the RATE/PROB fault-modifier fields.
// v3: rule provenance — CondEntry carries its source position, ActionEntry
//     carries the owning condition plus its own source position.  The
//     reader still accepts v2 (provenance defaults to "unknown" and the
//     action→condition back-references are reconstructed from the
//     condition table).
constexpr u16 kMinVersion = 2;
constexpr u16 kVersion = 3;

void put_ids(ByteWriter& w, const std::vector<u16>& v) {
  w.u16v(static_cast<u16>(v.size()));
  for (u16 x : v) w.u16v(x);
}

std::vector<u16> get_ids(ByteReader& r) {
  u16 n = r.u16v();
  std::vector<u16> v(n);
  for (auto& x : v) x = r.u16v();
  return v;
}

void put_mac(ByteWriter& w, const net::MacAddress& m) {
  w.raw(BytesView(m.bytes().data(), 6));
}

net::MacAddress get_mac(ByteReader& r) {
  Bytes b = r.raw(6);
  std::array<u8, 6> a{};
  std::copy(b.begin(), b.end(), a.begin());
  return net::MacAddress(a);
}

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("bad tables: ") + what);
}

/// Every id a consumer indexes with must be in range, so a hostile or
/// corrupted INIT fails its ack instead of reading out of bounds later.
/// Scalar node fields (home, eval_node, exec_node, src/dst) are only ever
/// compared with a node's own id; one naming no node just never matches.
void validate(const TableSet& t) {
  const std::size_t nfilters = t.filters.entries.size();
  const std::size_t nnodes = t.nodes.entries.size();
  const std::size_t ncounters = t.counters.entries.size();
  const std::size_t nterms = t.terms.entries.size();
  const std::size_t nconds = t.conditions.entries.size();
  // kInvalidId means "none" wherever a field is optional.
  auto opt = [](u16 id, std::size_t n) { return id == kInvalidId || id < n; };
  auto all = [](const std::vector<u16>& ids, std::size_t n) {
    return std::all_of(ids.begin(), ids.end(), [n](u16 id) { return id < n; });
  };

  for (const FilterEntry& f : t.filters.entries) {
    for (const FilterTuple& tp : f.tuples) {
      require(opt(tp.var, t.filters.var_names.size()), "variable id");
    }
  }
  for (const CounterEntry& c : t.counters.entries) {
    require(opt(c.filter, nfilters) && all(c.notify_nodes, nnodes) &&
                all(c.terms, nterms),
            "counter entry id");
  }
  for (const TermEntry& e : t.terms.entries) {
    require((!e.lhs.is_counter || e.lhs.counter < ncounters) &&
                (!e.rhs.is_counter || e.rhs.counter < ncounters) &&
                all(e.notify_nodes, nnodes) && all(e.conds, nconds),
            "term entry id");
  }
  for (std::size_t c = 0; c < nconds; ++c) {
    const CondEntry& e = t.conditions.entries[c];
    // Well-formed = evaluates, with in-range term ids.  The empty program
    // is accepted; the engines read it as never holding.
    auto stack = std::make_unique<bool[]>(e.postfix.size());
    require(e.postfix.empty() ||
                eval_postfix<BoolLogic>(
                    e.postfix, [](TermId) { return false; },
                    std::span<bool>(stack.get(), e.postfix.size()))
                    .has_value(),
            "malformed condition program");
    for (const CondInstr& in : e.postfix) {
      require(in.op != BoolOp::kTerm || in.term < nterms, "program term id");
    }
    require(all(e.eval_nodes, nnodes) &&
                all(e.actions, t.actions.entries.size()),
            "condition entry id");
    for (ActionId a : e.actions) {
      require(t.actions.entries[a].cond == c, "action back-reference");
    }
  }
  for (const ActionEntry& a : t.actions.entries) {
    require(a.kind <= ActionKind::kElapsedTime, "action kind");
    require(opt(a.filter, nfilters) && opt(a.cond, nconds), "action entry id");
    require(a.kind != ActionKind::kFail || a.fail_node < nnodes,
            "FAIL target node id");
    // The counter primitives (Table I) are the kinds from kAssignCntr on.
    require(a.kind < ActionKind::kAssignCntr || a.counter < ncounters,
            "action counter id");
    for (u16 pos : a.reorder_order) {
      require(pos >= 1 && pos <= a.reorder_count, "reorder position");
    }
  }
}

}  // namespace

Bytes serialize(const TableSet& t) {
  ByteWriter w;
  w.u32v(kMagic);
  w.u16v(kVersion);
  w.str(t.scenario_name);
  w.u64v(static_cast<u64>(t.inactivity_timeout.ns));

  // Filter table.
  w.u16v(static_cast<u16>(t.filters.var_names.size()));
  for (const auto& v : t.filters.var_names) w.str(v);
  w.u16v(static_cast<u16>(t.filters.entries.size()));
  for (const auto& e : t.filters.entries) {
    w.str(e.name);
    w.u16v(static_cast<u16>(e.tuples.size()));
    for (const auto& tp : e.tuples) {
      w.u16v(tp.offset);
      w.u16v(tp.length);
      w.u64v(tp.mask);
      w.u64v(tp.pattern);
      w.u16v(tp.var);
    }
  }

  // Node table.
  w.u16v(static_cast<u16>(t.nodes.entries.size()));
  for (const auto& n : t.nodes.entries) {
    w.str(n.name);
    put_mac(w, n.mac);
    w.u32v(n.ip.value());
  }

  // Counter table.
  w.u16v(static_cast<u16>(t.counters.entries.size()));
  for (const auto& c : t.counters.entries) {
    w.str(c.name);
    w.u8v(static_cast<u8>(c.kind));
    w.u16v(c.filter);
    w.u16v(c.src_node);
    w.u16v(c.dst_node);
    w.u8v(static_cast<u8>(c.dir));
    w.u16v(c.home);
    put_ids(w, c.terms);
    put_ids(w, c.notify_nodes);
  }

  // Term table.
  w.u16v(static_cast<u16>(t.terms.entries.size()));
  for (const auto& e : t.terms.entries) {
    auto put_operand = [&w](const Operand& o) {
      w.u8v(o.is_counter ? 1 : 0);
      w.u16v(o.counter);
      w.u64v(static_cast<u64>(o.constant));
    };
    put_operand(e.lhs);
    w.u8v(static_cast<u8>(e.op));
    put_operand(e.rhs);
    w.u16v(e.eval_node);
    put_ids(w, e.conds);
    put_ids(w, e.notify_nodes);
  }

  // Condition table.
  w.u16v(static_cast<u16>(t.conditions.entries.size()));
  for (const auto& c : t.conditions.entries) {
    w.u16v(static_cast<u16>(c.postfix.size()));
    for (const auto& in : c.postfix) {
      w.u8v(static_cast<u8>(in.op));
      w.u16v(in.term);
    }
    put_ids(w, c.actions);
    put_ids(w, c.eval_nodes);
    w.u32v(c.src_line);
    w.u32v(c.src_col);
  }

  // Action table.
  w.u16v(static_cast<u16>(t.actions.entries.size()));
  for (const auto& a : t.actions.entries) {
    w.u8v(static_cast<u8>(a.kind));
    w.u16v(a.exec_node);
    w.u16v(a.filter);
    w.u16v(a.src_node);
    w.u16v(a.dst_node);
    w.u8v(static_cast<u8>(a.dir));
    w.u64v(static_cast<u64>(a.delay.ns));
    w.u16v(a.reorder_count);
    put_ids(w, a.reorder_order);
    w.u16v(static_cast<u16>(a.modify_bytes.size()));
    for (const auto& m : a.modify_bytes) {
      w.u16v(m.offset);
      w.u8v(m.mask);
      w.u8v(m.value);
    }
    w.u16v(a.fail_node);
    w.u16v(a.counter);
    w.u64v(static_cast<u64>(a.value));
    w.u32v(a.rate_n);
    u64 prob_bits = 0;
    std::memcpy(&prob_bits, &a.prob, sizeof prob_bits);
    w.u64v(prob_bits);
    w.u16v(a.cond);
    w.u32v(a.src_line);
    w.u32v(a.src_col);
  }
  return w.take();
}

TableSet deserialize_tables(BytesView bytes) {
  ByteReader r(bytes);
  if (r.u32v() != kMagic) throw std::invalid_argument("bad table magic");
  const u16 version = r.u16v();
  if (version < kMinVersion || version > kVersion) {
    throw std::invalid_argument("bad table version");
  }
  TableSet t;
  t.scenario_name = r.str();
  t.inactivity_timeout = Duration{static_cast<i64>(r.u64v())};

  u16 nvars = r.u16v();
  for (u16 i = 0; i < nvars; ++i) t.filters.var_names.push_back(r.str());
  u16 nfilters = r.u16v();
  for (u16 i = 0; i < nfilters; ++i) {
    FilterEntry e;
    e.name = r.str();
    u16 ntuples = r.u16v();
    for (u16 j = 0; j < ntuples; ++j) {
      FilterTuple tp;
      tp.offset = r.u16v();
      tp.length = r.u16v();
      tp.mask = r.u64v();
      tp.pattern = r.u64v();
      tp.var = r.u16v();
      e.tuples.push_back(tp);
    }
    t.filters.entries.push_back(std::move(e));
  }

  u16 nnodes = r.u16v();
  for (u16 i = 0; i < nnodes; ++i) {
    NodeEntry n;
    n.name = r.str();
    n.mac = get_mac(r);
    n.ip = net::Ipv4Address(r.u32v());
    t.nodes.entries.push_back(std::move(n));
  }

  u16 ncounters = r.u16v();
  for (u16 i = 0; i < ncounters; ++i) {
    CounterEntry c;
    c.name = r.str();
    c.kind = static_cast<CounterKind>(r.u8v());
    c.filter = r.u16v();
    c.src_node = r.u16v();
    c.dst_node = r.u16v();
    c.dir = static_cast<net::Direction>(r.u8v());
    c.home = r.u16v();
    c.terms = get_ids(r);
    c.notify_nodes = get_ids(r);
    t.counters.entries.push_back(std::move(c));
  }

  u16 nterms = r.u16v();
  for (u16 i = 0; i < nterms; ++i) {
    TermEntry e;
    auto get_operand = [&r] {
      Operand o;
      o.is_counter = r.u8v() != 0;
      o.counter = r.u16v();
      o.constant = static_cast<i64>(r.u64v());
      return o;
    };
    e.lhs = get_operand();
    e.op = static_cast<RelOp>(r.u8v());
    e.rhs = get_operand();
    e.eval_node = r.u16v();
    e.conds = get_ids(r);
    e.notify_nodes = get_ids(r);
    t.terms.entries.push_back(std::move(e));
  }

  u16 nconds = r.u16v();
  for (u16 i = 0; i < nconds; ++i) {
    CondEntry c;
    u16 nin = r.u16v();
    for (u16 j = 0; j < nin; ++j) {
      CondInstr in;
      in.op = static_cast<BoolOp>(r.u8v());
      in.term = r.u16v();
      c.postfix.push_back(in);
    }
    c.actions = get_ids(r);
    c.eval_nodes = get_ids(r);
    if (version >= 3) {
      c.src_line = r.u32v();
      c.src_col = r.u32v();
    }
    t.conditions.entries.push_back(std::move(c));
  }

  u16 nactions = r.u16v();
  for (u16 i = 0; i < nactions; ++i) {
    ActionEntry a;
    a.kind = static_cast<ActionKind>(r.u8v());
    a.exec_node = r.u16v();
    a.filter = r.u16v();
    a.src_node = r.u16v();
    a.dst_node = r.u16v();
    a.dir = static_cast<net::Direction>(r.u8v());
    a.delay = Duration{static_cast<i64>(r.u64v())};
    a.reorder_count = r.u16v();
    a.reorder_order = get_ids(r);
    u16 nmod = r.u16v();
    for (u16 j = 0; j < nmod; ++j) {
      ModifyByte m;
      m.offset = r.u16v();
      m.mask = r.u8v();
      m.value = r.u8v();
      a.modify_bytes.push_back(m);
    }
    a.fail_node = r.u16v();
    a.counter = r.u16v();
    a.value = static_cast<i64>(r.u64v());
    a.rate_n = r.u32v();
    const u64 prob_bits = r.u64v();
    std::memcpy(&a.prob, &prob_bits, sizeof a.prob);
    if (version >= 3) {
      a.cond = r.u16v();
      a.src_line = r.u32v();
      a.src_col = r.u32v();
    }
    t.actions.entries.push_back(std::move(a));
  }
  if (version < 3) {
    // Reconstruct the action → owning-condition back-references a v2
    // producer never wrote, so consumers read ActionEntry::cond whatever
    // the input version.
    for (std::size_t c = 0; c < t.conditions.entries.size(); ++c) {
      for (ActionId id : t.conditions.entries[c].actions) {
        if (id < t.actions.entries.size()) {
          t.actions.entries[id].cond = static_cast<CondId>(c);
        }
      }
    }
  }
  validate(t);
  return t;
}

}  // namespace vwire::core
