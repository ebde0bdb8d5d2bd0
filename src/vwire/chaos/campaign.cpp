#include "vwire/chaos/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "vwire/core/fsl/compiler.hpp"
#include "vwire/core/fsl/verify.hpp"
#include "vwire/obs/json.hpp"
#include "vwire/util/rng.hpp"

namespace vwire::chaos {

namespace {

void append_u64(std::string& out, const char* key, u64 v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%" PRIu64, key, v);
  out += buf;
}

std::string violations_json(const std::vector<Violation>& vs) {
  std::string out = "[";
  for (std::size_t i = 0; i < vs.size(); ++i) {
    if (i) out += ',';
    out += "{\"invariant\":\"";
    out += obs::json_escape(vs[i].invariant);
    out += "\",\"detail\":\"";
    out += obs::json_escape(vs[i].detail);
    out += "\",";
    char buf[64];
    std::snprintf(buf, sizeof buf, "\"first_at_ns\":%" PRId64 ",",
                  vs[i].first_at.ns);
    out += buf;
    append_u64(out, "count", vs[i].count);
    out += '}';
  }
  out += ']';
  return out;
}

using WallClock = std::chrono::steady_clock;

}  // namespace

Campaign::Campaign(CampaignConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.probe_period.ns <= 0) cfg_.probe_period = millis(5);
  if (cfg_.drain_grace.ns < 0) cfg_.drain_grace = {};
}

FaultSchedule Campaign::schedule_for(u64 index) const {
  // RNG draws over the fixture's cached fault space: no harness is built.
  const FixtureDescription& fixture = describe_fixture(cfg_.fixture);
  return generate_schedule(cfg_.seed, index,
                           fixture.schedule_template(cfg_.state_faults));
}

TrialResult Campaign::run_trial(u64 index) const {
  return run_schedule(schedule_for(index));
}

TrialResult Campaign::run_schedule(const FaultSchedule& schedule) const {
  TrialResult out;
  out.trial_index = schedule.trial_index;
  out.schedule = schedule;

  // Trial isolation: a brand-new harness (testbed, medium, stacks,
  // workload apps) per execution.
  const FixtureDescription& fixture = describe_fixture(cfg_.fixture);
  const u64 workload_seed = derive_seed(schedule.campaign_seed,
                                        "trial.workload", schedule.trial_index);
  std::unique_ptr<TrialHarness> harness = fixture.build(fixture, workload_seed);
  Testbed& tb = harness->testbed();
  sim::Simulator& sim = tb.simulator();
  const std::vector<std::string> node_names = tb.node_names();

  ScenarioSpec spec =
      harness->make_spec(fsl_rules(schedule, fixture.fsl_site));
  spec.seed = derive_seed(schedule.campaign_seed, "trial.medium",
                          schedule.trial_index);

  // A generated script that fails lint is a bug in the generator, not in
  // the system under test: record it as a violation (so stop/ddmin/repro
  // treat the schedule as failing) and skip the run.
  {
    fsl::CompileOptions lint_opts;
    lint_opts.scenario = spec.scenario;
    lint_opts.lint = true;
    const fsl::CompileResult checked = fsl::check_script(spec.script,
                                                         lint_opts);
    if (!checked.ok()) {
      Violation v;
      v.invariant = "generated-script-lint";
      v.detail = "generated FSL failed lint with " +
                 std::to_string(fsl::count_errors(checked.diagnostics)) +
                 " error(s); first: ";
      for (const fsl::Diagnostic& d : checked.diagnostics) {
        if (d.severity == fsl::Severity::kError) {
          v.detail += fsl::format_diagnostic(d);
          break;
        }
      }
      out.violations.push_back(std::move(v));
      return out;  // out.ran stays false: the scenario was never armed
    }

    // Verification pre-flight (DESIGN.md §13): a provoking packet fault the
    // model checker PROVES unreachable can never fire, so the trial would
    // silently test nothing — that is a generator bug, same as a lint
    // failure.  Incomplete exploration makes no claim and lets the trial
    // run.
    const fsl::mc::VerifyResult vr = fsl::mc::verify_tables(checked.tables);
    if (vr.complete) {
      for (const fsl::mc::RuleVerdict& rv : vr.rules) {
        if (rv.reachable()) continue;
        const core::CondEntry& cond = checked.tables.conditions.entries[rv.rule];
        bool provoking = false;
        for (core::ActionId a : cond.actions) {
          if (core::is_packet_fault(
                  checked.tables.actions.entries[a].kind)) {
            provoking = true;
            break;
          }
        }
        if (!provoking) continue;
        Violation v;
        v.invariant = "generated-script-verify";
        v.detail = "generated FSL rule " + std::to_string(rv.rule) +
                   " carries a provoking packet fault but is provably "
                   "unreachable (fsl-verify-dead-rule at " +
                   std::to_string(rv.src_line) + ":" +
                   std::to_string(rv.src_col) + ")";
        out.violations.push_back(std::move(v));
        return out;  // out.ran stays false: the fault could never fire
      }
    }
  }

  // Materialize the non-FSL events into the runner's fault primitives.
  for (const FaultEvent& e : schedule.events) {
    switch (e.kind) {
      case FaultKind::kCrash:
        spec.crashes.push_back({e.node, e.at, e.until});
        break;
      case FaultKind::kLinkCut: {
        LinkFaultSpec f;
        f.kind = LinkFaultSpec::Kind::kCut;
        f.node = e.node;
        f.at = e.at;
        f.until = e.until;
        spec.link_faults.push_back(std::move(f));
        break;
      }
      case FaultKind::kLinkFlap: {
        LinkFaultSpec f;
        f.kind = LinkFaultSpec::Kind::kFlap;
        f.node = e.node;
        f.at = e.at;
        f.until = e.until;
        f.flap_up = e.flap_up;
        f.flap_down = e.flap_down;
        spec.link_faults.push_back(std::move(f));
        break;
      }
      case FaultKind::kLinkDegrade: {
        LinkFaultSpec f;
        f.kind = LinkFaultSpec::Kind::kDegrade;
        f.node = e.node;
        f.at = e.at;
        f.until = e.until;
        f.loss_tx = e.loss_tx;
        f.loss_rx = e.loss_rx;
        f.extra_latency = e.extra_latency;
        spec.link_faults.push_back(std::move(f));
        break;
      }
      case FaultKind::kRllDupDeliver: {
        if (std::find(node_names.begin(), node_names.end(), e.node) ==
            node_names.end()) {
          throw std::invalid_argument(
              "chaos: rll_dup_deliver targets unknown node '" + e.node + "'");
        }
        rll::RllLayer* rll = tb.handles(e.node).rll;
        if (rll == nullptr) {
          throw std::invalid_argument(
              "chaos: rll_dup_deliver targets node '" + e.node +
              "' which has no RLL layer");
        }
        spec.actions.push_back({e.at, [rll] {
                                  rll->set_test_duplicate_delivery(true);
                                }});
        if (e.until > e.at) {
          spec.actions.push_back({e.until, [rll] {
                                    rll->set_test_duplicate_delivery(false);
                                  }});
        }
        break;
      }
      case FaultKind::kStateFault: {
        if (std::find(node_names.begin(), node_names.end(), e.node) ==
            node_names.end()) {
          throw std::invalid_argument(
              "chaos: state_fault targets unknown node '" + e.node + "'");
        }
        if (!harness->schedule_state_fault(e, spec)) {
          throw std::invalid_argument(
              "chaos: fixture '" + cfg_.fixture +
              "' cannot apply state fault '" + to_string(e.state) +
              "' on node '" + e.node + "'");
        }
        break;
      }
      case FaultKind::kFslDrop:
      case FaultKind::kFslDelay:
      case FaultKind::kFslDup:
      case FaultKind::kFslModify:
        break;  // already in the script via fsl_rules()
    }
  }

  // Invariants: fixture-specific plus the campaign-level cross-layer set.
  InvariantSet inv;
  harness->register_invariants(inv);
  // Resolved once here, not on every probe: the testbed's nodes (and their
  // RLL layers) are fixed once the harness is built.
  std::vector<std::pair<const std::string*, const rll::RllLayer*>> rlls;
  for (const std::string& n : node_names) {
    if (const rll::RllLayer* rll = tb.handles(n).rll) {
      rlls.emplace_back(&n, rll);
    }
  }
  auto rll_exactly_once = [&rlls]() -> std::optional<std::string> {
    for (const auto& [name, rll] : rlls) {
      if (std::optional<std::string> msg =
              check_rll_exactly_once(rll->stats())) {
        return "node " + *name + ": " + *msg;
      }
    }
    return std::nullopt;
  };
  inv.add_probe("rll-exactly-once", rll_exactly_once);
  inv.add_final("rll-exactly-once", rll_exactly_once);

  ScenarioRunner runner(tb);
  inv.add_final("epoch-monotonic", [&runner]() -> std::optional<std::string> {
    control::Controller* c = runner.controller();
    if (c == nullptr) return "scenario never armed a controller";
    return check_epoch_advanced(0, c->epoch());
  });
  // Conservation is checked by the post-run drain below, once the wire has
  // had a chance to go quiet.
  phy::Medium& medium = tb.medium();
  inv.add_final("packet-conservation",
                [&medium] { return check_conservation(medium.stats()); });

  spec.probe = [&inv, &sim] { inv.run_probes(sim.now()); };
  spec.probe_period = cfg_.probe_period;

  // Per-trial wall-clock watchdog: a workload whose event storm never lets
  // the run quiesce (or whose simulated deadline is hours of real time
  // away) is cut off between supervision ticks and quarantined below.
  const WallClock::time_point wall_deadline =
      WallClock::now() + std::chrono::milliseconds(
                             cfg_.trial_timeout_ms > 0 ? cfg_.trial_timeout_ms
                                                       : 0);
  if (cfg_.trial_timeout_ms > 0) {
    spec.options.should_abort = [wall_deadline] {
      return WallClock::now() >= wall_deadline;
    };
  }

  control::ScenarioResult result = runner.run(spec);
  out.ran = true;
  out.scenario_passed = result.passed();
  out.effective_seed = result.effective_seed;
  out.firings = result.firings.size() + result.firings_dropped;
  out.link_events = result.link_events.size();

  // A watchdog abort quarantines the trial: the run was cut mid-flight, so
  // post-run invariants would report half-done-state noise rather than
  // protocol bugs.  Record the structured trial-timeout violation (with the
  // simulated instant the supervisor pulled the plug) and stop here.
  if (result.aborted_by_watchdog) {
    Violation v;
    v.invariant = "trial-timeout";
    v.detail = "trial exceeded its " + std::to_string(cfg_.trial_timeout_ms) +
               "ms wall-clock deadline (simulated t=" +
               std::to_string(sim.now().seconds()) + "s, " +
               std::to_string(schedule.events.size()) + " scheduled events)";
    v.first_at = sim.now();
    v.count = 1;
    out.violations.push_back(std::move(v));
    out.telemetry = make_report(tb, &result).to_jsonl();
    out.timeline = tb.collect_timeline();
    out.timeline_dropped = tb.timeline_dropped();
    return out;
  }

  // Drain toward a quiescent instant: stop perpetual sources, lift link
  // faults, then step events until every offered frame is either delivered
  // or attributed to a drop cause (or the grace budget runs out — in which
  // case the conservation final fires, which is the point).  The watchdog
  // deadline keeps bounding the drain too.
  harness->quiesce();
  for (std::size_t p = 0; p < medium.port_count(); ++p) {
    medium.clear_link_fault(static_cast<phy::PortId>(p));
  }
  const TimePoint cap = sim.now() + cfg_.drain_grace;
  while (sim.now() < cap && check_conservation(medium.stats()).has_value()) {
    if (cfg_.trial_timeout_ms > 0 && WallClock::now() >= wall_deadline) break;
    if (!sim.step()) break;
  }

  inv.run_final(sim.now());
  out.violations = inv.violations();
  out.telemetry = make_report(tb, &result).to_jsonl();
  if (!out.violations.empty()) {
    // Snapshot the causal record only on failure: passing trials would pay
    // the collection cost thousands of times per campaign for nothing.
    out.timeline = tb.collect_timeline();
    out.timeline_dropped = tb.timeline_dropped();
  }
  return out;
}

CampaignSummary Campaign::run() { return run_from({}); }

CampaignSummary Campaign::run_from(std::vector<TrialResult> completed) {
  CampaignSummary s;
  s.fixture = cfg_.fixture;
  s.seed = cfg_.seed;
  s.trials_requested = cfg_.trials;
  s.results.resize(cfg_.trials);

  // Resume: journaled trials slot straight into the result set; the claim
  // loop below never hands out their indices.  Determinism makes the
  // merged summary byte-identical to an uninterrupted run's.
  std::vector<bool> done(cfg_.trials, false);
  for (TrialResult& r : completed) {
    if (r.trial_index >= cfg_.trials) continue;
    const std::size_t i = static_cast<std::size_t>(r.trial_index);
    done[i] = true;
    s.results[i] = std::move(r);
  }

  std::atomic<u64> next{0};
  std::atomic<bool> stop{false};
  std::mutex hook_mu;  // serializes cfg_.on_trial across workers
  auto cancelled = [this] {
    return cfg_.cancel != nullptr &&
           cfg_.cancel->load(std::memory_order_relaxed);
  };
  auto worker = [&] {
    for (;;) {
      if (stop.load(std::memory_order_relaxed) || cancelled()) break;
      u64 i = next.fetch_add(1, std::memory_order_relaxed);
      while (i < cfg_.trials && done[i]) {  // done[] is read-only by now
        i = next.fetch_add(1, std::memory_order_relaxed);
      }
      if (i >= cfg_.trials) break;
      // Transient-infrastructure retry: a throw is re-attempted with
      // exponential backoff before it is recorded; only an exhausted
      // budget produces the structured trial-exception violation.  A
      // non-std::exception throw must not std::terminate a worker — it
      // becomes the same structured violation.
      TrialResult r;
      std::string error;
      for (u32 attempt = 0;; ++attempt) {
        error.clear();
        try {
          r = run_trial(i);
        } catch (const std::exception& e) {
          error = e.what();
        } catch (...) {
          error = "non-standard exception escaped the trial";
        }
        if (error.empty() || attempt >= cfg_.trial_retries || cancelled()) {
          break;
        }
        const i64 backoff = cfg_.retry_backoff_ms > 0
                                ? cfg_.retry_backoff_ms << attempt
                                : 0;
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      }
      if (!error.empty()) {
        r = TrialResult{};
        r.trial_index = i;
        r.violations.push_back({"trial-exception", error, {}, 1});
      }
      // A lint or verification failure in a generated script means every
      // further trial would exercise the same broken generator — stop
      // unconditionally.
      const bool generator_bug =
          std::any_of(r.violations.begin(), r.violations.end(),
                      [](const Violation& v) {
                        return v.invariant == "generated-script-lint" ||
                               v.invariant == "generated-script-verify";
                      });
      if (generator_bug || (!r.ok() && cfg_.stop_on_violation)) {
        stop.store(true, std::memory_order_relaxed);
      }
      if (cfg_.on_trial) {
        const std::scoped_lock lock(hook_mu);
        cfg_.on_trial(r);
      }
      s.results[i] = std::move(r);
    }
  };
  if (cfg_.workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    for (std::size_t w = 0; w < cfg_.workers; ++w) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  for (std::size_t i = 0; i < s.results.size(); ++i) {
    TrialResult& r = s.results[i];
    if (!r.ran && r.violations.empty()) continue;  // skipped by early stop
    ++s.trials_run;
    s.total_firings += r.firings;
    s.total_link_events += r.link_events;
    if (!r.ok()) s.failing_trials.push_back(static_cast<u64>(i));
    if (!cfg_.keep_telemetry) r.telemetry.clear();
  }

  if (!s.failing_trials.empty() && cfg_.minimize) {
    const TrialResult& failing = s.results[s.failing_trials.front()];
    auto still_fails = [this](const FaultSchedule& cand) {
      try {
        return !run_schedule(cand).ok();
      } catch (const std::exception&) {
        return true;  // a schedule that breaks the harness still "fails"
      }
    };
    const FaultSchedule minimized = minimize_schedule(
        failing.schedule, still_fails, cfg_.minimize_budget_ms);

    ReproArtifact art;
    art.fixture = cfg_.fixture;
    art.schedule = minimized;
    art.original_events = failing.schedule.events.size();
    art.violations = failing.violations;
    art.timeline = failing.timeline;
    art.timeline_dropped = failing.timeline_dropped;
    try {
      TrialResult confirm = run_schedule(minimized);
      if (!confirm.violations.empty()) {
        art.violations = confirm.violations;
        // The minimized run's timeline is the better repro: only the
        // causal chain the violation actually needs survives ddmin.
        art.timeline = std::move(confirm.timeline);
        art.timeline_dropped = confirm.timeline_dropped;
      }
    } catch (const std::exception&) {
      // keep the original trial's violations
    }
    art.fsl =
        fsl_rules(minimized, describe_fixture(cfg_.fixture).fsl_site);
    s.repro = std::move(art);
  }
  return s;
}

FaultSchedule minimize_schedule(
    const FaultSchedule& failing,
    const std::function<bool(const FaultSchedule&)>& still_fails,
    i64 wall_budget_ms) {
  std::vector<FaultEvent> cur = failing.events;
  auto with_events = [&failing](std::vector<FaultEvent> ev) {
    FaultSchedule s = failing;
    s.events = std::move(ev);
    return s;
  };
  // Budget check between predicate runs: each probe is itself bounded by
  // the campaign's per-trial watchdog, so the search exceeds the budget by
  // at most one trial's worth of wall clock.
  const WallClock::time_point budget_deadline =
      WallClock::now() +
      std::chrono::milliseconds(wall_budget_ms > 0 ? wall_budget_ms : 0);
  auto out_of_budget = [wall_budget_ms, budget_deadline] {
    return wall_budget_ms > 0 && WallClock::now() >= budget_deadline;
  };

  std::size_t n = 2;  // ddmin granularity
  while (cur.size() >= 2 && !out_of_budget()) {
    const std::size_t chunk = (cur.size() + n - 1) / n;
    bool reduced = false;

    // Try each chunk alone ("reduce to subset").
    for (std::size_t i = 0; i * chunk < cur.size() && !reduced; ++i) {
      if (out_of_budget()) break;
      const std::size_t lo = i * chunk;
      const std::size_t hi = std::min(cur.size(), lo + chunk);
      std::vector<FaultEvent> subset(cur.begin() + lo, cur.begin() + hi);
      if (subset.size() < cur.size() && still_fails(with_events(subset))) {
        cur = std::move(subset);
        n = 2;
        reduced = true;
      }
    }
    // Try removing each chunk ("reduce to complement").
    for (std::size_t i = 0; i * chunk < cur.size() && !reduced; ++i) {
      if (out_of_budget()) break;
      const std::size_t lo = i * chunk;
      const std::size_t hi = std::min(cur.size(), lo + chunk);
      std::vector<FaultEvent> rest(cur.begin(), cur.begin() + lo);
      rest.insert(rest.end(), cur.begin() + hi, cur.end());
      if (!rest.empty() && rest.size() < cur.size() &&
          still_fails(with_events(rest))) {
        cur = std::move(rest);
        n = std::max<std::size_t>(2, n - 1);
        reduced = true;
      }
    }
    if (!reduced) {
      if (n >= cur.size()) break;  // finest granularity exhausted: minimal
      n = std::min(cur.size(), n * 2);
    }
  }
  return with_events(std::move(cur));
}

std::string ReproArtifact::to_json() const {
  std::string out = "{\"v\":1,\"type\":\"chaos_repro\",\"fixture\":\"";
  out += obs::json_escape(fixture);
  out += "\",";
  append_u64(out, "original_events", original_events);
  out += ",\"violations\":";
  out += violations_json(violations);
  out += ",\"fsl\":\"";
  out += obs::json_escape(fsl);
  out += "\",";
  append_u64(out, "timeline_dropped", timeline_dropped);
  out += ",\n\"timeline\":";
  out += obs::timeline_json(timeline);
  out += ",\n\"schedule\":";
  out += schedule.to_json();
  out += "}";
  return out;
}

ReproArtifact ReproArtifact::from_json(std::string_view text) {
  return from_value(obs::JsonValue::parse(text));
}

ReproArtifact ReproArtifact::from_value(const obs::JsonValue& v) {
  if (v.str("type") != "chaos_repro") {
    throw std::runtime_error("chaos repro: wrong document type '" +
                             v.str("type") + "'");
  }
  ReproArtifact art;
  art.fixture = v.str("fixture");
  const double oe = v.num("original_events");
  art.original_events =
      oe > 0 ? static_cast<std::size_t>(oe < 1e9 ? oe : 1e9) : 0;
  if (v.has("violations")) {
    for (const obs::JsonValue& vv : v.at("violations").as_array()) {
      Violation viol;
      viol.invariant = vv.str("invariant");
      viol.detail = vv.str("detail");
      art.violations.push_back(std::move(viol));
    }
  }
  art.fsl = v.str("fsl");
  // Tolerant: pre-v8 artifacts have no timeline — an absent field loads as
  // an empty record, and vwire-trace reports it as such.
  if (v.has("timeline")) {
    art.timeline = obs::timeline_from_value(v.at("timeline"));
    art.timeline_dropped = v.uint("timeline_dropped");
  }
  if (!v.has("schedule")) {
    throw std::runtime_error("chaos repro: missing schedule");
  }
  art.schedule = schedule_from_value(v.at("schedule"));
  return art;
}

std::string CampaignSummary::to_json() const {
  std::string out = "{\"v\":1,\"type\":\"chaos_campaign\",\"fixture\":\"";
  out += obs::json_escape(fixture);
  out += "\",";
  append_u64(out, "seed", seed);
  out += ',';
  append_u64(out, "trials_requested", trials_requested);
  out += ',';
  append_u64(out, "trials_run", trials_run);
  out += ",\"failing_trials\":[";
  for (std::size_t i = 0; i < failing_trials.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(failing_trials[i]);
  }
  out += "],";
  append_u64(out, "total_firings", total_firings);
  out += ',';
  append_u64(out, "total_link_events", total_link_events);
  out += ",\"trials\":[";
  bool first = true;
  for (const TrialResult& r : results) {
    if (!r.ran && r.violations.empty()) continue;  // never launched
    if (!first) out += ',';
    first = false;
    out += "\n  {";
    append_u64(out, "index", r.trial_index);
    out += ',';
    append_u64(out, "events", r.schedule.events.size());
    out += ",\"scenario_passed\":";
    out += r.scenario_passed ? "true" : "false";
    out += ',';
    append_u64(out, "effective_seed", r.effective_seed);
    out += ',';
    append_u64(out, "firings", r.firings);
    out += ',';
    append_u64(out, "link_events", r.link_events);
    out += ",\"violations\":";
    out += violations_json(r.violations);
    out += '}';
  }
  out += "\n]";
  if (repro) {
    out += ",\n\"repro\":";
    out += repro->to_json();
  }
  out += "}";
  return out;
}

std::string CampaignSummary::summary_line() const {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "chaos[%s] seed=%" PRIu64 ": %zu/%zu trials run, %zu with "
                "violations",
                fixture.c_str(), seed, trials_run, trials_requested,
                failing_trials.size());
  return buf;
}

}  // namespace vwire::chaos
