#include "vwire/core/analysis/offline.hpp"

namespace vwire::core {

OfflineAnalyzer::OfflineAnalyzer(TableSet tables)
    : tables_(std::move(tables)),
      classifier_(tables_.filters),
      vars_(tables_.filters.var_names.size()),
      rules_(*this, stats_) {}

OfflineResult OfflineAnalyzer::analyze(const trace::TraceBuffer& trace) {
  rules_.load(tables_, kInvalidId, /*observer=*/true);
  vars_.reset();
  result_ = {};
  now_ = {};
  index_ = 0;

  rules_.start();
  const auto& records = trace.records();
  for (; index_ < records.size() && !result_.stopped; ++index_) {
    process_record(records[index_]);
    ++result_.records_processed;
  }
  for (std::size_t c = 0; c < tables_.counters.entries.size(); ++c) {
    result_.counters[tables_.counters.entries[c].name] =
        rules_.counter_value(static_cast<CounterId>(c));
  }
  return std::move(result_);
}

void OfflineAnalyzer::process_record(const trace::TraceRecord& rec) {
  now_ = rec.at;
  ClassifyResult cls = classifier_.classify(rec.frame, vars_);
  if (cls.filter == kInvalidId) return;

  auto eth = net::EthernetHeader::read(rec.frame);
  if (!eth) return;
  NodeId src = tables_.nodes.find_mac(eth->src);
  NodeId dst = tables_.nodes.find_mac(eth->dst);
  // Each packet appears in the trace once per capturing node; it counts,
  // and its faults would apply, only where the live engine sits.
  NodeId here = tables_.nodes.find(rec.node);

  rules_.count_packet(cls.filter, rec.dir, src, dst, here);

  // Tally packet-fault activations the live FIE would have applied here.
  for (const ActionEntry& e : tables_.actions.entries) {
    if (!is_packet_fault(e.kind) || e.cond == kInvalidId) continue;
    if (e.filter != cls.filter || e.dir != rec.dir) continue;
    if (e.src_node != src || e.dst_node != dst || e.exec_node != here) {
      continue;
    }
    if (rules_.condition_state(e.cond)) ++result_.would_have_fired_faults;
  }
}

void OfflineAnalyzer::action_fired(const ActionEntry& e, ActionId /*id*/,
                                   CondId cond, u16 /*depth*/) {
  switch (e.kind) {
    case ActionKind::kStop:
      if (!result_.stopped) result_.stop_index = index_;
      result_.stopped = true;
      return;
    case ActionKind::kFlagError:
      result_.errors.push_back({index_, now_, cond});
      return;
    default:
      return;  // FAIL cannot crash a node of a recorded past
  }
}

}  // namespace vwire::core
