#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

#include "bench.hpp"
#include "vwire/core/api/scenario_runner.hpp"
#include "vwire/core/engine/classifier.hpp"
#include "vwire/core/fsl/compiler.hpp"
#include "vwire/core/fsl/verify.hpp"
#include "vwire/util/logging.hpp"

namespace perfbench {

using namespace vwire;

namespace {

std::atomic<std::uint64_t> g_log_lines{0};

/// Replays the engine frames the shims sampled through a classifier built
/// from the armed tables: mean tuples compared and mean time per frame.
void replay_classifier(const core::TableSet& tables, const FrameSampler& s,
                       RepResult& r) {
  if (s.size() == 0) return;
  const core::Classifier cls(tables.filters);
  core::VarStore vars(tables.filters.var_names.size());
  std::uint64_t tuples = 0;
  constexpr int kPasses = 8;
  const Clock::time_point t0 = Clock::now();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      vars.reset();
      tuples += cls.classify(s.frame(i), vars).tuples_compared;
    }
  }
  const double n = static_cast<double>(s.size()) * kPasses;
  r.classify_ns = seconds_since(t0) * 1e9 / n;
  r.tuples_per_packet = static_cast<double>(tuples) / n;
}

}  // namespace

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::string counts_diff(const Counts& a, const Counts& b) {
  for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    if (i >= a.size() || i >= b.size() || a[i] != b[i]) {
      const auto& c = i < a.size() ? a[i] : b[i];
      auto value = [i](const Counts& x) {
        return i < x.size() ? std::to_string(x[i].second) : "-";
      };
      return c.first + " " + value(a) + " vs " + value(b);
    }
  }
  return "";
}

void print_counts(const Counts& c) {
  std::printf("# counts {");
  for (std::size_t i = 0; i < c.size(); ++i) {
    std::printf("%s\"%s\": %llu", i ? ", " : "", c[i].first.c_str(),
                static_cast<unsigned long long>(c[i].second));
  }
  std::printf("}\n");
}

void install_log_counter() {
  set_log_sink([](LogLevel, const std::string&) {
    g_log_lines.fetch_add(1, std::memory_order_relaxed);
  });
}

std::uint64_t log_lines() {
  return g_log_lines.load(std::memory_order_relaxed);
}

RepResult run_rep(const ScenarioFactory& make, const RepShape& shape,
                  SpanRecorder* rec) {
  RepResult r;
  const std::uint64_t logs0 = log_lines();
  const AllocCounts allocs0 = thread_allocs();
  const Clock::time_point t0 = Clock::now();

  // Declared first so the shims outlive the testbed they are spliced into.
  Shims shims;

  // --- set-up: build, generate, lint, compile, arm ---------------------
  std::unique_ptr<Scenario> sc = make();
  Testbed& tb = sc->testbed();
  sim::Simulator& sim = tb.simulator();
  r.build_s = seconds_since(t0);

  Clock::time_point t = Clock::now();
  const std::string script = sc->script();
  r.generate_s = seconds_since(t);

  t = Clock::now();
  fsl::CompileOptions lint_opts;
  lint_opts.lint = true;
  const fsl::CompileResult checked = fsl::check_script(script, lint_opts);
  r.lint_s = seconds_since(t);
  std::uint64_t setup_failures = checked.ok() ? 0 : 1;

  t = Clock::now();
  const core::TableSet tables = fsl::compile_script(script);
  r.compile_s = seconds_since(t);

  t = Clock::now();
  control::Controller ctrl(sim, tb.managed_nodes(), sc->control_node());
  control::RunOptions opts;
  opts.heartbeat_period = {};  // no liveness beacons in the measurement
  if (!ctrl.arm(tables, opts).ok) ++setup_failures;
  r.arm_s = seconds_since(t);
  r.setup_s = seconds_since(t0);

  // Shims go in after arming, so set-up is the same traced or not; their
  // own allocations are left out of the rep's count.
  AllocCounts splice_allocs;
  if (rec != nullptr) {
    const AllocCounts a = thread_allocs();
    shims = splice_shims(tb, *rec);
    splice_allocs = {thread_allocs().calls - a.calls,
                     thread_allocs().bytes - a.bytes};
  }

  // --- load: warm-up, measured window, drain ---------------------------
  sc->start();
  sim.run_until(sim.now() + shape.warmup);

  const std::uint64_t frames0 = tb.medium().stats().frames_delivered;
  const std::uint64_t events0 = sim.executed_events();
  const std::uint64_t app0 = sc->app_bytes();
  const AllocCounts wallocs0 = thread_allocs();
  t = Clock::now();
  if (rec != nullptr) rec->set_active(true);
  step_until(sim, sim.now() + shape.window, rec);
  if (rec != nullptr) rec->set_active(false);
  r.window_wall_s = seconds_since(t);
  const AllocCounts wallocs1 = thread_allocs();
  r.window_sim_s = shape.window.seconds();
  r.window_frames = tb.medium().stats().frames_delivered - frames0;
  r.window_events = sim.executed_events() - events0;
  r.window_app_bytes = sc->app_bytes() - app0;
  r.window_allocs = {wallocs1.calls - wallocs0.calls,
                     wallocs1.bytes - wallocs0.bytes};

  sc->stop();
  const TimePoint drain_cap = sim.now() + shape.drain_max;
  while (!sc->drained() && sim.now() < drain_cap) {
    sim.run_until(sim.now() + millis(1));
  }

  // --- checks and report -----------------------------------------------
  r.outcome = sc->outcome();
  r.outcome.failed += setup_failures;
  if (r.outcome.attempted == 0) r.outcome.failed += 1;  // nothing ran
  r.telemetry_bytes = make_report(tb, nullptr).to_jsonl().size();
  r.rep_wall_s = seconds_since(t0);
  r.rep_allocs = thread_allocs().calls - allocs0.calls - splice_allocs.calls;
  r.log_lines = log_lines() - logs0;

  const phy::MediumStats& ms = tb.medium().stats();
  std::uint64_t nic_tx = 0;
  for (const std::string& name : tb.node_names()) {
    const NodeHandles& h = tb.handles(name);
    nic_tx += h.node->nic().stats().tx_frames;
    if (h.engine != nullptr) {
      r.engine_seen += h.engine->stats().packets_seen;
      r.engine_actions += h.engine->stats().actions_executed;
    }
    if (h.rll != nullptr) {
      r.rll_data += h.rll->stats().data_tx;
      r.rll_acks += h.rll->stats().acks_tx;
      r.rll_retransmits += h.rll->stats().retransmits;
    }
  }
  r.trace_records = tb.trace().size();
  r.flight_dropped = tb.timeline_dropped();
  r.counts = {
      {"window.frames", r.window_frames},
      {"window.events", r.window_events},
      {"window.allocs", r.window_allocs.calls},
      {"window.alloc_bytes", r.window_allocs.bytes},
      {"window.app_bytes", r.window_app_bytes},
      {"rep.allocs", r.rep_allocs},
      {"rep.events", sim.executed_events()},
      {"rep.sim_end_ns", static_cast<std::uint64_t>(sim.now().ns)},
      {"medium.frames_delivered", ms.frames_delivered},
      {"medium.bytes_delivered", ms.bytes_delivered},
      {"nic.tx_frames", nic_tx},
      {"engine.packets_seen", r.engine_seen},
      {"engine.actions_executed", r.engine_actions},
      {"rll.data_tx", r.rll_data},
      {"rll.acks_tx", r.rll_acks},
      {"rll.retransmits", r.rll_retransmits},
      {"trace.records", r.trace_records},
      {"obs.flight_dropped", r.flight_dropped},
      {"obs.telemetry_bytes", r.telemetry_bytes},
      {"app.attempted", r.outcome.attempted},
      {"app.failed", r.outcome.failed},
      {"app.rtt_p99_ns",
       static_cast<std::uint64_t>(std::llround(r.outcome.rtt_p99_us * 1e3))},
      {"log.lines", r.log_lines},
  };
  sc->extra_counts(r.counts);

  if (rec != nullptr) {
    replay_classifier(tables, rec->engine_frames(), r);
    rec->engine_frames().clear();
    t = Clock::now();
    (void)fsl::mc::verify_tables(tables);
    r.verify_s = seconds_since(t);
  }
  return r;
}

}  // namespace perfbench
