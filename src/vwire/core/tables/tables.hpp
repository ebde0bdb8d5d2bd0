// The six tables of VirtualWire (paper §5.1, Fig 3).
//
// "The interpreter parses the script to generate a set of six tables which
//  are used to initialize each FIE and FAE involved in the test scenario."
//
//   filter table    — packet classification by raw byte patterns
//   node table      — name → (MAC, IP)
//   counter table   — event/local counters + dependency fan-out
//   term table      — relational expressions over counters
//   condition table — boolean expressions over terms + triggered actions
//   action table    — faults and counter manipulations, each bound to the
//                     node that executes it
//
// Dependency lists ({term_id, condition_id} pairs per counter, notify-node
// lists) are precomputed by the FSL compiler, exactly as the paper
// describes, so the run-time engine only chases indices.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "vwire/net/address.hpp"
#include "vwire/net/packet.hpp"

namespace vwire::core {

using NodeId = u16;
using FilterId = u16;
using CounterId = u16;
using TermId = u16;
using CondId = u16;
using ActionId = u16;
using VarId = u16;
inline constexpr u16 kInvalidId = 0xffff;

// ---------------------------------------------------------------------------
// Filter table

/// One matching tuple: "(offset length [mask] pattern)" — paper Fig 2.
/// A tuple either compares masked bytes against a fixed pattern or binds /
/// compares a run-time variable (paper: "unless there is a variable in the
/// filter table which is defined at run time").
struct FilterTuple {
  u16 offset{0};
  u16 length{0};  ///< 1..8 bytes, big-endian extraction
  u64 mask{~0ull};
  u64 pattern{0};
  VarId var{kInvalidId};  ///< != kInvalidId: variable tuple

  bool is_var() const { return var != kInvalidId; }
};

struct FilterEntry {
  std::string name;
  std::vector<FilterTuple> tuples;  ///< logical AND (paper §4)
};

struct FilterTable {
  std::vector<FilterEntry> entries;  ///< priority = order (paper §6.1)
  std::vector<std::string> var_names;

  FilterId find(std::string_view name) const;
};

// ---------------------------------------------------------------------------
// Node table

struct NodeEntry {
  std::string name;
  net::MacAddress mac;
  net::Ipv4Address ip;
};

struct NodeTable {
  std::vector<NodeEntry> entries;

  NodeId find(std::string_view name) const;
  NodeId find_mac(const net::MacAddress& mac) const;
};

// ---------------------------------------------------------------------------
// Counter table

enum class CounterKind : u8 {
  kEvent,  ///< counts send/receive events of a packet type
  kLocal,  ///< a script variable on one node, driven only by actions
};

struct CounterEntry {
  std::string name;
  CounterKind kind{CounterKind::kLocal};

  // Event counters: which packets, between which nodes, on which side.
  FilterId filter{kInvalidId};
  NodeId src_node{kInvalidId};
  NodeId dst_node{kInvalidId};
  net::Direction dir{net::Direction::kRecv};

  /// Where the counter value lives: SEND events count at the source node,
  /// RECV events at the destination; local counters at their declared node.
  NodeId home{kInvalidId};

  // Compiler-filled dependency fan-out (paper Fig 3: "pairs of {term_id,
  // condition_id} that are dependent on the counter's value, as well as the
  // nodes which need to be reached").
  std::vector<TermId> terms;
  std::vector<NodeId> notify_nodes;  ///< remote nodes mirroring this value
};

struct CounterTable {
  std::vector<CounterEntry> entries;
  CounterId find(std::string_view name) const;
};

// ---------------------------------------------------------------------------
// Term table

enum class RelOp : u8 { kGt, kLt, kGe, kLe, kEq, kNe };

const char* to_string(RelOp op);
bool eval_rel(RelOp op, i64 lhs, i64 rhs);

struct Operand {
  bool is_counter{false};
  CounterId counter{kInvalidId};
  i64 constant{0};
};

struct TermEntry {
  Operand lhs;
  RelOp op{RelOp::kEq};
  Operand rhs;

  /// Node that evaluates and owns this term's state (home of the lhs
  /// counter after normalization).
  NodeId eval_node{kInvalidId};

  std::vector<CondId> conds;         ///< conditions referencing this term
  std::vector<NodeId> notify_nodes;  ///< nodes needing the term's status
};

struct TermTable {
  std::vector<TermEntry> entries;
};

// ---------------------------------------------------------------------------
// Condition table

/// Conditions are stored as postfix programs over term states.
enum class BoolOp : u8 { kTerm, kAnd, kOr, kNot, kTrue };

struct CondInstr {
  BoolOp op{BoolOp::kTrue};
  TermId term{kInvalidId};
};

/// Two-valued logic for eval_postfix, as the engines evaluate conditions;
/// the static checkers use a three-valued one (fsl::TruthLogic).
struct BoolLogic {
  using Value = bool;
  static constexpr bool kTrue = true;
  static bool negate(bool a) { return !a; }
  static bool conj(bool a, bool b) { return a && b; }
  static bool disj(bool a, bool b) { return a || b; }
};

/// The one condition evaluator: runs postfix program `prog` in `Logic`,
/// taking each term's value from `leaf(term_id)`.  No program grows the
/// stack past its length, so a `stack` of prog.size() values suffices and
/// a caller that evaluates repeatedly sizes it once and never allocates.
/// nullopt: the program underflows, or does not leave exactly one value.
template <class Logic, class Leaf>
std::optional<typename Logic::Value> eval_postfix(
    const std::vector<CondInstr>& prog, Leaf&& leaf,
    std::span<typename Logic::Value> stack) {
  if (stack.size() < prog.size()) return std::nullopt;
  std::size_t sp = 0;
  for (const CondInstr& in : prog) {
    switch (in.op) {
      case BoolOp::kTrue: stack[sp++] = Logic::kTrue; break;
      case BoolOp::kTerm: stack[sp++] = leaf(in.term); break;
      case BoolOp::kNot:
        if (sp < 1) return std::nullopt;
        stack[sp - 1] = Logic::negate(stack[sp - 1]);
        break;
      case BoolOp::kAnd:
      case BoolOp::kOr:
        if (sp < 2) return std::nullopt;
        --sp;
        stack[sp - 1] = in.op == BoolOp::kAnd
                            ? Logic::conj(stack[sp - 1], stack[sp])
                            : Logic::disj(stack[sp - 1], stack[sp]);
        break;
      default: return std::nullopt;  // not a BoolOp (bad wire input)
    }
  }
  if (sp != 1) return std::nullopt;
  return stack[0];
}

struct CondEntry {
  std::vector<CondInstr> postfix;
  std::vector<ActionId> actions;    ///< in script order
  std::vector<NodeId> eval_nodes;   ///< where dependent actions live

  // Rule provenance (table format v3): source position of the rule this
  // condition was compiled from.  Makes the rule-id ↔ table-entry mapping
  // queryable without the AST — verifier diagnostics and witness traces
  // point back into the script.  0 = unknown (legacy v2 tables).
  u32 src_line{0};
  u32 src_col{0};
};

struct ConditionTable {
  std::vector<CondEntry> entries;
};

// ---------------------------------------------------------------------------
// Action table

enum class ActionKind : u8 {
  // Fault injection (Table II).
  kDrop,
  kDelay,
  kReorder,
  kDup,
  kModify,
  kFail,
  kStop,
  kFlagError,
  // Counter manipulation (Table I).
  kAssignCntr,
  kEnableCntr,
  kDisableCntr,
  kIncrCntr,
  kDecrCntr,
  kResetCntr,
  kSetCurtime,
  kElapsedTime,
};

const char* to_string(ActionKind k);
bool is_packet_fault(ActionKind k);  ///< DROP/DELAY/REORDER/DUP/MODIFY

/// Explicit byte rewrite for MODIFY: out[offset] =
/// (out[offset] & ~mask) | (value & mask).
struct ModifyByte {
  u16 offset{0};
  u8 mask{0xff};
  u8 value{0};
};

struct ActionEntry {
  ActionKind kind{ActionKind::kStop};
  NodeId exec_node{kInvalidId};

  // Packet-fault parameters: which packets the fault applies to.
  FilterId filter{kInvalidId};
  NodeId src_node{kInvalidId};
  NodeId dst_node{kInvalidId};
  net::Direction dir{net::Direction::kRecv};

  Duration delay{};                      ///< DELAY
  u16 reorder_count{0};                  ///< REORDER window size
  std::vector<u16> reorder_order;        ///< 1-based release order
  std::vector<ModifyByte> modify_bytes;  ///< empty ⇒ random perturbation

  NodeId fail_node{kInvalidId};  ///< FAIL target

  CounterId counter{kInvalidId};  ///< counter primitives
  i64 value{0};                   ///< ASSIGN/INCR/DECR amount

  // Fault modifiers (packet faults only).  rate_n == 0 means no RATE
  // modifier; rate_n == N fires on every Nth matching packet.  prob < 1.0
  // fires per match with that probability, drawn from a per-action RNG
  // stream the engine derives from the scenario's effective seed.
  u32 rate_n{0};
  double prob{1.0};

  // Rule provenance (table format v3): the owning condition, which every
  // producer sets (deserialize_tables rebuilds it for v2 input and checks
  // it), and the action's own source position (0 on v2 tables).
  CondId cond{kInvalidId};
  u32 src_line{0};
  u32 src_col{0};
};

struct ActionTable {
  std::vector<ActionEntry> entries;
};

// ---------------------------------------------------------------------------
// The bundle shipped to every node (paper: "all FIEs and FAEs are sent the
// entire set of tables").

struct TableSet {
  std::string scenario_name;
  Duration inactivity_timeout{};  ///< 0 = none declared
  FilterTable filters;
  NodeTable nodes;
  CounterTable counters;
  TermTable terms;
  ConditionTable conditions;
  ActionTable actions;

  /// The condition (rule) owning action `id` (ActionEntry::cond);
  /// kInvalidId when the action is orphaned or `id` is out of range.
  CondId owning_cond(ActionId id) const {
    return id < actions.entries.size() ? actions.entries[id].cond : kInvalidId;
  }
};

/// Wire (de)serialization for the control plane's INIT message.
Bytes serialize(const TableSet& tables);
/// Throws std::invalid_argument on malformed input: a truncated or
/// unknown-version bundle, a malformed condition program, or a cross-table
/// id out of range (or a `cond` back-reference the conditions disagree with).
TableSet deserialize_tables(BytesView bytes);

}  // namespace vwire::core
