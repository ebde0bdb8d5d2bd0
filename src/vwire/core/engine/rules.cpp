#include "vwire/core/engine/rules.hpp"

#include <algorithm>

#include "vwire/util/logging.hpp"

namespace vwire::core {

RuleMachine::RuleMachine(Host& host, RuleStats& stats, u32 max_cascade_depth)
    : host_(host), stats_(stats), max_cascade_depth_(max_cascade_depth) {}

void RuleMachine::load(const TableSet& tables, NodeId self, bool observer) {
  t_ = &tables;
  self_ = self;
  observer_ = observer;

  counters_by_filter_.assign(tables.filters.entries.size(), {});
  eligible_.clear();
  for (std::size_t c = 0; c < tables.counters.entries.size(); ++c) {
    const CounterEntry& e = tables.counters.entries[c];
    if (e.kind != CounterKind::kEvent || e.filter == kInvalidId) continue;
    if (!local(e.home)) continue;
    auto& list = counters_by_filter_[e.filter];
    list.push_back(static_cast<CounterId>(c));
    eligible_.reserve(list.size());
  }

  eval_stack_size_ = 0;
  for (const CondEntry& e : tables.conditions.entries) {
    eval_stack_size_ = std::max(eval_stack_size_, e.postfix.size());
  }
  eval_stack_ = std::make_unique<bool[]>(eval_stack_size_);
  reset();
}

void RuleMachine::reset() {
  if (t_ == nullptr) return;
  counters_.assign(t_->counters.entries.size(), {});
  term_state_.assign(t_->terms.entries.size(), 0);
  cond_state_.assign(t_->conditions.entries.size(), 0);
  rises_.assign(t_->conditions.entries.size(), 0);
}

void RuleMachine::start() {
  for (std::size_t c = 0; c < cond_state_.size(); ++c) {
    eval_condition(static_cast<CondId>(c), /*depth=*/0);
  }
  drain();
}

std::size_t RuleMachine::count_packet(FilterId filter, net::Direction dir,
                                      NodeId src, NodeId dst, NodeId at) {
  // Snapshot first: the cascade below may enable more counters.
  eligible_.clear();
  for (CounterId cid : counters_by_filter_[filter]) {
    const CounterEntry& e = t_->counters.entries[cid];
    if (!counters_[cid].enabled || e.dir != dir || e.home != at) continue;
    if (e.src_node != src || e.dst_node != dst) continue;
    eligible_.push_back(cid);
  }
  for (CounterId cid : eligible_) {
    write_counter(cid, counters_[cid].value + 1, /*depth=*/0);
  }
  drain();
  return eligible_.size();
}

void RuleMachine::mirror_counter(CounterId id, i64 value) {
  counters_[id].value = value;
  for (TermId t : t_->counters.entries[id].terms) {
    if (local(t_->terms.entries[t].eval_node)) eval_term(t, /*depth=*/0);
  }
  drain();
}

bool RuleMachine::mirror_term(TermId id, bool state) {
  if ((term_state_[id] != 0) == state) return false;
  term_state_[id] = state ? 1 : 0;
  for (CondId c : t_->terms.entries[id].conds) eval_condition(c, /*depth=*/0);
  drain();
  return true;
}

void RuleMachine::write_counter(CounterId id, i64 value, int depth) {
  counters_[id].value = value;
  ++stats_.counter_updates;
  host_.counter_written(id, value);
  for (TermId t : t_->counters.entries[id].terms) {
    if (local(t_->terms.entries[t].eval_node)) eval_term(t, depth + 1);
  }
}

void RuleMachine::eval_term(TermId id, int depth) {
  const TermEntry& e = t_->terms.entries[id];
  auto value = [this](const Operand& o) {
    return o.is_counter ? counters_[o.counter].value : o.constant;
  };
  const bool s = eval_rel(e.op, value(e.lhs), value(e.rhs));
  ++stats_.terms_evaluated;
  if ((term_state_[id] != 0) == s) return;
  term_state_[id] = s ? 1 : 0;
  // Remote condition evaluators hear of status changes only (paper §5.2).
  host_.term_changed(id, s);
  for (CondId c : e.conds) eval_condition(c, depth + 1);
}

void RuleMachine::eval_condition(CondId id, int depth) {
  const CondEntry& e = t_->conditions.entries[id];
  // Evaluated only where one of the condition's actions lives.
  if (!observer_ && std::find(e.eval_nodes.begin(), e.eval_nodes.end(),
                              self_) == e.eval_nodes.end()) {
    return;
  }
  ++stats_.conditions_evaluated;
  const bool now =
      eval_postfix<BoolLogic>(
          e.postfix, [this](TermId t) { return term_state_[t] != 0; },
          std::span<bool>(eval_stack_.get(), eval_stack_size_))
          .value_or(false);
  const bool before = cond_state_[id] != 0;
  cond_state_[id] = now ? 1 : 0;
  if (now && !before) {
    fired_.emplace_back(id, static_cast<u16>(depth));
    ++rises_[id];
  }
}

void RuleMachine::drain() {
  if (draining_) return;  // the outermost drain owns the queue
  draining_ = true;
  std::size_t rounds = 0;
  while (!fired_.empty()) {
    if (++rounds > static_cast<std::size_t>(max_cascade_depth_) * 16) {
      ++stats_.cascade_overflows;
      fired_.clear();
      VWIRE_ERROR() << "rule-firing loop exceeded bound";
      host_.rule_loop();
      break;
    }
    auto [c, d] = fired_.front();
    fired_.pop_front();
    fire(c, d);
  }
  draining_ = false;
}

void RuleMachine::fire(CondId id, u16 depth) {
  for (ActionId a : t_->conditions.entries[id].actions) {
    const ActionEntry& e = t_->actions.entries[a];
    if (!local(e.exec_node)) continue;      // that node fires it itself
    if (is_packet_fault(e.kind)) continue;  // level-triggered on packets
    ++stats_.actions_executed;
    host_.action_fired(e, a, id, depth);
    // The counter primitives (Table I) are the kinds from kAssignCntr on;
    // STOP/FLAG_ERROR/FAIL were the host's to act on.
    if (e.kind < ActionKind::kAssignCntr) continue;
    CounterState& c = counters_[e.counter];
    i64 next = 0;
    switch (e.kind) {
      case ActionKind::kEnableCntr:
        c.enabled = true;
        continue;
      case ActionKind::kDisableCntr:
        c.enabled = false;
        continue;
      case ActionKind::kAssignCntr:
        c.enabled = true;
        next = e.value;
        break;
      case ActionKind::kIncrCntr:
        next = c.value + e.value;
        break;
      case ActionKind::kDecrCntr:
        next = c.value - e.value;
        break;
      case ActionKind::kResetCntr:
        break;
      case ActionKind::kSetCurtime:
        next = host_.now().ns / 1'000'000;  // ms
        break;
      default:  // kElapsedTime
        next = host_.now().ns / 1'000'000 - c.value;
        break;
    }
    // Action writes cascade from depth 1 (a packet's count is depth 0).
    write_counter(e.counter, next, /*depth=*/1);
  }
}

}  // namespace vwire::core
