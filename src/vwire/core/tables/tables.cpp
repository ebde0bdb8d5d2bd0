#include "vwire/core/tables/tables.hpp"

namespace vwire::core {

FilterId FilterTable::find(std::string_view name) const {
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].name == name) return static_cast<FilterId>(i);
  }
  return kInvalidId;
}

NodeId NodeTable::find(std::string_view name) const {
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].name == name) return static_cast<NodeId>(i);
  }
  return kInvalidId;
}

NodeId NodeTable::find_mac(const net::MacAddress& mac) const {
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].mac == mac) return static_cast<NodeId>(i);
  }
  return kInvalidId;
}

CounterId CounterTable::find(std::string_view name) const {
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].name == name) return static_cast<CounterId>(i);
  }
  return kInvalidId;
}

const char* to_string(RelOp op) {
  switch (op) {
    case RelOp::kGt: return ">";
    case RelOp::kLt: return "<";
    case RelOp::kGe: return ">=";
    case RelOp::kLe: return "<=";
    case RelOp::kEq: return "=";
    case RelOp::kNe: return "!=";
  }
  return "?";
}

bool eval_rel(RelOp op, i64 lhs, i64 rhs) {
  switch (op) {
    case RelOp::kGt: return lhs > rhs;
    case RelOp::kLt: return lhs < rhs;
    case RelOp::kGe: return lhs >= rhs;
    case RelOp::kLe: return lhs <= rhs;
    case RelOp::kEq: return lhs == rhs;
    case RelOp::kNe: return lhs != rhs;
  }
  return false;
}

const char* to_string(ActionKind k) {
  switch (k) {
    case ActionKind::kDrop: return "DROP";
    case ActionKind::kDelay: return "DELAY";
    case ActionKind::kReorder: return "REORDER";
    case ActionKind::kDup: return "DUP";
    case ActionKind::kModify: return "MODIFY";
    case ActionKind::kFail: return "FAIL";
    case ActionKind::kStop: return "STOP";
    case ActionKind::kFlagError: return "FLAG_ERROR";
    case ActionKind::kAssignCntr: return "ASSIGN_CNTR";
    case ActionKind::kEnableCntr: return "ENABLE_CNTR";
    case ActionKind::kDisableCntr: return "DISABLE_CNTR";
    case ActionKind::kIncrCntr: return "INCR_CNTR";
    case ActionKind::kDecrCntr: return "DECR_CNTR";
    case ActionKind::kResetCntr: return "RESET_CNTR";
    case ActionKind::kSetCurtime: return "SET_CURTIME";
    case ActionKind::kElapsedTime: return "ELAPSED_TIME";
  }
  return "?";
}

bool is_packet_fault(ActionKind k) {
  switch (k) {
    case ActionKind::kDrop:
    case ActionKind::kDelay:
    case ActionKind::kReorder:
    case ActionKind::kDup:
    case ActionKind::kModify:
      return true;
    default:
      return false;
  }
}

}  // namespace vwire::core
