#include "vwire/core/engine/engine.hpp"

#include <algorithm>

#include "vwire/util/logging.hpp"

namespace vwire::core {

EngineLayer::EngineLayer(sim::Simulator& sim, EngineParams params)
    : sim_(sim),
      params_(params),
      rng_(params.seed),
      rules_(*this, stats_, params.max_cascade_depth),
      provenance_(params.provenance_capacity) {}

void EngineLayer::bind_metrics(obs::MetricsRegistry& reg,
                               const std::string& prefix) {
  obs::expose_stats(reg, prefix, stats_);
  proc_hist_ = &reg.histogram(prefix + ".proc_ns");
}

EngineLayer::~EngineLayer() = default;

void EngineLayer::load(TableSet tables) {
  tables_ = std::move(tables);
  classifier_ = std::make_unique<Classifier>(tables_.filters);
  vars_ = std::make_unique<VarStore>(tables_.filters.var_names.size());

  self_ = node_ != nullptr ? tables_.nodes.find_mac(node_->mac()) : kInvalidId;
  rules_.load(tables_, self_);

  local_fault_actions_.clear();
  for (std::size_t a = 0; a < tables_.actions.entries.size(); ++a) {
    const ActionEntry& e = tables_.actions.entries[a];
    if (is_packet_fault(e.kind) && e.exec_node == self_) {
      local_fault_actions_.push_back(static_cast<ActionId>(a));
    }
  }

  // What each condition depends on, for provenance snapshots: the terms in
  // its postfix, and every counter those terms compare.
  cond_counters_.assign(tables_.conditions.entries.size(), {});
  cond_terms_.assign(tables_.conditions.entries.size(), {});
  auto add_unique = [](std::vector<u16>& ids, u16 id) {
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
  };
  for (std::size_t c = 0; c < tables_.conditions.entries.size(); ++c) {
    for (const CondInstr& in : tables_.conditions.entries[c].postfix) {
      if (in.op != BoolOp::kTerm) continue;
      add_unique(cond_terms_[c], in.term);
      const TermEntry& t = tables_.terms.entries[in.term];
      if (t.lhs.is_counter) add_unique(cond_counters_[c], t.lhs.counter);
      if (t.rhs.is_counter) add_unique(cond_counters_[c], t.rhs.counter);
    }
  }

  reorder_buf_.clear();
  reorder_served_.clear();
  reseed_modifiers();
  // Fresh scenario, fresh provenance: the ring from a previous arm() must
  // not leak into this run's explain() output.
  provenance_.reset(params_.provenance_capacity);
  loaded_ = true;
  running_ = false;
}

void EngineLayer::set_modifier_seed(u64 seed) {
  modifier_seed_ = seed;
  if (loaded_) reseed_modifiers();
}

void EngineLayer::reseed_modifiers() {
  mod_count_.assign(tables_.actions.entries.size(), 0);
  mod_rng_.clear();
  mod_rng_.reserve(tables_.actions.entries.size());
  for (std::size_t a = 0; a < tables_.actions.entries.size(); ++a) {
    mod_rng_.push_back(Rng::derive(
        modifier_seed_, "fsl.mod",
        (static_cast<u64>(self_) << 32) | static_cast<u64>(a)));
  }
}

void EngineLayer::fill_record(obs::FiringRecord& r, CondId cond,
                              ActionId action, u16 depth) const {
  // The slot is reused across ring laps: overwrite every field read at
  // collection time (node_name is only ever set on collected copies).
  r.at = sim_.now();
  r.node = self_;
  r.rule = cond;
  r.action = action;
  const ActionEntry& e = tables_.actions.entries[action];
  r.kind = static_cast<u8>(e.kind);
  r.kind_name = to_string(e.kind);
  r.cascade_depth = depth;
  r.filter = obs::FiringRecord::kNone;
  r.packet_uid = 0;
  r.value = 0;
  r.value2 = 0;
  r.n_counters = 0;
  r.n_terms = 0;
  if (cond != kInvalidId) {
    for (CounterId c : cond_counters_[cond]) {
      if (r.n_counters >= obs::FiringRecord::kMaxCounters) break;
      r.counters[r.n_counters++] = {c, rules_.counter_value(c)};
    }
    for (TermId t : cond_terms_[cond]) {
      if (r.n_terms >= obs::FiringRecord::kMaxTerms) break;
      r.terms[r.n_terms++] = {t, rules_.term_state(t)};
    }
  }
}

void EngineLayer::start(NodeId controller_node) {
  if (!loaded_) return;
  controller_ = controller_node;
  running_ = true;
  // Initial sweep: conditions whose value is already true (notably TRUE
  // rules) fire their edge now, on every node that owns actions.
  rules_.start();
}

void EngineLayer::reset() {
  rules_.reset();
  if (vars_) vars_->reset();
  reorder_buf_.clear();
  reorder_served_.clear();
  reseed_modifiers();
  provenance_.clear();
  running_ = false;
}

bool EngineLayer::is_transport_frame(const net::Packet& pkt) const {
  u16 et = pkt.ethertype();
  return et == static_cast<u16>(net::EtherType::kVwControl) ||
         et == static_cast<u16>(net::EtherType::kRll);
}

// ---------------------------------------------------------------------------
// Packet path

void EngineLayer::send_down(net::Packet pkt) {
  if (!running_ || self_ == kInvalidId || is_transport_frame(pkt)) {
    pass_down(std::move(pkt));
    return;
  }
  process(std::move(pkt), net::Direction::kSend);
}

void EngineLayer::receive_up(net::Packet pkt) {
  if (!running_ || self_ == kInvalidId || is_transport_frame(pkt)) {
    pass_up(std::move(pkt));
    return;
  }
  process(std::move(pkt), net::Direction::kRecv);
}

void EngineLayer::process(net::Packet pkt, net::Direction dir) {
  ++stats_.packets_seen;
  actions_this_packet_ = 0;

  ClassifyResult cls = classifier_->classify(pkt.view(), *vars_);

  NodeId src = kInvalidId, dst = kInvalidId;
  if (auto eth = pkt.ethernet()) {
    src = tables_.nodes.find_mac(eth->src);
    dst = tables_.nodes.find_mac(eth->dst);
  }

  if (cls.filter != kInvalidId) {
    ++stats_.packets_matched;
    // Event counters homed here that watch this packet type and flow.
    if (rules_.count_packet(cls.filter, dir, src, dst, self_) > 0 &&
        context_ != nullptr) {
      context_->note_activity(sim_.now());
    }
  }

  Fate fate = apply_faults(pkt, dir, cls.filter, src, dst);

  Duration cost{};
  if (params_.charge_costs) {
    cost = params_.cost_base +
           Duration{static_cast<i64>(cls.tuples_compared) *
                    params_.cost_per_tuple.ns} +
           Duration{static_cast<i64>(actions_this_packet_) *
                    params_.cost_per_action.ns};
  }
  if (proc_hist_ != nullptr) proc_hist_->record(cost.ns);
  if (fate == Fate::kRelease) {
    release(std::move(pkt), dir, cost);
  }
  // kConsumed: nothing.  kDiverted: the fault owns re-injection.
}

void EngineLayer::release(net::Packet pkt, net::Direction dir, Duration cost) {
  if (cost.ns <= 0) {
    release_now(std::move(pkt), dir);
    return;
  }
  // Processing cost is latency only — packets of one direction never
  // overtake each other inside the engine.
  std::size_t d = static_cast<std::size_t>(dir);
  TimePoint at = std::max(sim_.now() + cost, last_release_[d]);
  last_release_[d] = at;
  sim_.at(at, [this, pkt = std::move(pkt), dir, gen = purge_gen_]() mutable {
    if (gen != purge_gen_) return;  // node crashed in the meantime
    release_now(std::move(pkt), dir);
  });
}

void EngineLayer::on_node_crash() {
  for (auto& [a, buf] : reorder_buf_) stats_.drops += buf.size();
  reorder_buf_.clear();
  ++purge_gen_;
  last_release_[0] = last_release_[1] = {};
}

void EngineLayer::release_now(net::Packet&& pkt, net::Direction dir) {
  if (dir == net::Direction::kSend) {
    pass_down(std::move(pkt));
  } else {
    pass_up(std::move(pkt));
  }
}

// ---------------------------------------------------------------------------
// RuleMachine hooks

void EngineLayer::counter_written(CounterId id, i64 value) {
  // Mirror the new value to remote term-evaluating nodes (paper §5.2).
  for (NodeId n : tables_.counters.entries[id].notify_nodes) {
    send_control(n, control::make_counter_update(id, value));
  }
}

void EngineLayer::term_changed(TermId id, bool state) {
  // "A term status is conveyed only in case of a change in its status."
  for (NodeId n : tables_.terms.entries[id].notify_nodes) {
    send_control(n, control::make_term_status(id, state));
  }
}

void EngineLayer::rule_loop() {
  if (context_ != nullptr) context_->on_error({sim_.now(), self_, kInvalidId});
}

void EngineLayer::action_fired(const ActionEntry& e, ActionId id, CondId cond,
                               u16 depth) {
  ++actions_this_packet_;
  if (provenance_.enabled()) {
    // Snapshot before executing: the record shows the state that made the
    // rule fire, not the state the action leaves behind.
    obs::FiringRecord& r = provenance_.claim();
    fill_record(r, cond, id, depth);
    r.value = e.value;
  }
  switch (e.kind) {
    case ActionKind::kFail:
      VWIRE_INFO() << "FAIL(" << tables_.nodes.entries[e.fail_node].name
                   << ") at " << sim_.now().seconds() << "s";
      if (node_ != nullptr) node_->fail();
      return;
    case ActionKind::kStop:
      if (context_ != nullptr) context_->on_stop(self_, sim_.now());
      if (controller_ != kInvalidId) {
        send_control(controller_, control::make_stopped(self_));
      }
      return;
    case ActionKind::kFlagError:
      VWIRE_WARN() << "FLAG_ERROR on node "
                   << (self_ < tables_.nodes.entries.size()
                           ? tables_.nodes.entries[self_].name
                           : "?")
                   << " (condition " << cond << ") at "
                   << sim_.now().seconds() << "s";
      if (context_ != nullptr) context_->on_error({sim_.now(), self_, cond});
      if (controller_ != kInvalidId) {
        send_control(controller_, control::make_error(self_, sim_.now(), cond));
      }
      return;
    default:
      return;  // counter actions: the RuleMachine applies them
  }
}

// ---------------------------------------------------------------------------
// Control plane

void EngineLayer::send_control(NodeId to, control::ControlMessage msg) {
  if (control_ == nullptr || to >= tables_.nodes.entries.size()) return;
  msg.epoch = epoch_;
  if (to == self_) {
    // Local shortcut: the paper's engine also consumes its own updates
    // without a wire hop (and without spending a sequence number — the
    // message never crosses the agent's fencing path).
    ++stats_.control_tx;
    handle_control(node_->mac(), control::encode(msg));
    return;
  }
  msg.seq = control_->next_seq();
  ++stats_.control_tx;
  control_->send_to(tables_.nodes.entries[to].mac, control::encode(msg));
}

void EngineLayer::handle_control(const net::MacAddress& /*from*/,
                                 BytesView payload) {
  auto msg = control::decode(payload);
  if (!msg) return;
  ++stats_.control_rx;
  switch (msg->type) {
    case control::MsgType::kCounterUpdate: {
      const auto& m = std::get<control::CounterUpdateMsg>(msg->body);
      if (m.counter >= tables_.counters.entries.size()) return;
      if (context_ != nullptr) context_->note_activity(sim_.now());
      // Mirrored counters only drive local term evaluation; they are not
      // re-broadcast (their home does that).
      rules_.mirror_counter(m.counter, m.value);
      return;
    }
    case control::MsgType::kTermStatus: {
      const auto& m = std::get<control::TermStatusMsg>(msg->body);
      if (m.term >= tables_.terms.entries.size()) return;
      if (rules_.mirror_term(m.term, m.state) && context_ != nullptr) {
        context_->note_activity(sim_.now());
      }
      return;
    }
    default:
      return;  // kInit/kStart are routed by the runner, not here
  }
}

}  // namespace vwire::core
