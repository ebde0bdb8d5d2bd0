// perfbench: the repository benchmark.
//
//   perfbench --workload <tcp_bulk|udp_small|rether_ring|chaos_campaign>
//             --seed <n> --seconds <s> --trace <0|1> [--tiny]
//             [--spans-out <file.csv>]
//
// --trace 0 measures the end-to-end metrics with no tracing; --trace 1
// runs traced and untraced reps in pairs and reports the per-layer
// breakdown and the tracing overhead.  The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.  The
// exit code is non-zero when any output check failed.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "workloads.hpp"

namespace perfbench {

using namespace vwire;

namespace {

/// Sample storage reserved up front, so it does not grow between reps.
constexpr std::size_t kMaxReps = 1 << 14;
/// The rep that gives a steady workload's simulated figures runs this many
/// measured windows' worth of simulated time.
constexpr std::int64_t kSimWindows = 10;

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

template <class F>
std::vector<double> collect(const std::vector<RepResult>& reps, F f) {
  std::vector<double> out;
  out.reserve(reps.size());
  for (const RepResult& r : reps) out.push_back(f(r));
  return out;
}

void tally(const RepResult& r, Report& out) {
  out.attempted += r.outcome.attempted;
  out.failed += r.outcome.failed;
}

/// Every metric of a steady workload's untraced run.
///
/// Every rep runs the same simulation (their counts must match), so a rep
/// has one cost and the spread of its wall time is the host's.  On a
/// shared host a rep runs either at full speed or about 1.5x slower while
/// a neighbour shares its core; the two alternate every 0.1-0.5 s and the
/// share of slow reps drifts over minutes, so a median or a mean over reps
/// follows the neighbours.  The rep's cost and its set-up are therefore
/// taken from the fastest rep and set-up, the rates from the fastest
/// measured window.
Report run_steady(const ScenarioFactory& make, const RepShape& shape,
                  const Args& args) {
  Report out;
  // The first rep pays one-time lazy initialization; it is not measured.
  run_rep(make, shape, nullptr);
  // Nothing of a rep outlives it but these samples and the first rep's
  // counts: long-lived allocations left between reps fragment the heap and
  // slow later reps down.
  std::vector<double> setups, reps, windows;
  setups.reserve(kMaxReps);
  reps.reserve(kMaxReps);
  windows.reserve(kMaxReps);
  RepResult ref;
  const Clock::time_point t0 = Clock::now();
  do {
    RepResult r = run_rep(make, shape, nullptr);
    setups.push_back(r.setup_s);
    reps.push_back(r.rep_wall_s);
    windows.push_back(r.window_wall_s);
    tally(r, out);
    if (reps.size() == 1) {
      ref = std::move(r);
    } else if (std::string d = counts_diff(ref.counts, r.counts); !d.empty()) {
      out.fail("rep " + std::to_string(reps.size()) + " differs: " + d);
    }
  } while (seconds_since(t0) < args.seconds || reps.size() < 3);

  const double best_rep = *std::min_element(reps.begin(), reps.end());
  const double best_window = *std::min_element(windows.begin(), windows.end());
  out.add("setup_s", "s", *std::min_element(setups.begin(), setups.end()));
  out.add("sim_speed", "sim_s/s", ref.window_sim_s / best_window);
  out.add("frames_per_s", "frames/s",
          static_cast<double>(ref.window_frames) / best_window);
  out.add("trials_per_s", "trials/s", 1 / best_rep);
  out.add("trial_ms", "ms", best_rep * 1e3);
  std::printf("# %zu reps in %.3f s; rep p50 %.3f ms, p99 %.3f ms;"
              " set-up p50 %.3f ms\n",
              reps.size(), seconds_since(t0), median(reps) * 1e3,
              percentile(reps, 99) * 1e3, median(setups) * 1e3);
  out.add("peak_rss_MB", "MB", peak_rss_mb());

  // The simulated figures are a function of the seed.  One rep with a
  // longer window, run after the measured ones, averages more of the
  // seed's draws than a measured rep does.
  RepShape sim_shape = shape;
  sim_shape.window = shape.window * kSimWindows;
  const RepResult sim = run_rep(make, sim_shape, nullptr);
  tally(sim, out);
  out.add("sim_goodput_Mbps", "sim_Mbps",
          static_cast<double>(sim.window_app_bytes) * 8 / sim.window_sim_s /
              1e6);
  out.add("sim_rtt_p99_us", "sim_us", sim.outcome.rtt_p99_us);
  print_counts(ref.counts);
  return out;
}

/// The traced run of a steady workload.
Report run_steady_traced(const ScenarioFactory& make, const RepShape& shape,
                         const Args& args) {
  Report out;
  SpanRecorder rec(1u << 18);
  const PairedReps pairs = run_pairs([&make](std::size_t) { return make; },
                                     nullptr, shape, args,
                                     /*same_inputs=*/true, rec, out);
  add_layer_metrics(pairs, rec, out);

  const RepResult& ref = pairs.untraced.front();
  print_counts(ref.counts);
  auto med = [&](auto f) { return median(collect(pairs.untraced, f)); };
  out.add("chaos.generate_ns", "ns",
          med([](const RepResult& r) { return r.generate_s * 1e9; }));
  out.add("api.testbed_build_ns", "ns",
          med([](const RepResult& r) { return r.build_s * 1e9; }));
  out.add("fsl.lint_ns", "ns",
          med([](const RepResult& r) { return r.lint_s * 1e9; }));
  out.add("fsl.verify_ns", "ns",
          median(collect(pairs.traced,
                         [](const RepResult& r) { return r.verify_s * 1e9; })));
  const std::vector<double> rep_ns = collect(
      pairs.untraced, [](const RepResult& r) { return r.rep_wall_s * 1e9; });
  out.add("chaos.trial_ns", "ns", median(rep_ns));
  out.add("chaos.trial_p99_ns", "ns", percentile(rep_ns, 99));
  out.add("chaos.allocs_per_trial", "allocs",
          static_cast<double>(ref.rep_allocs));
  out.add("obs.telemetry_bytes_per_trial", "B",
          static_cast<double>(ref.telemetry_bytes));
  out.add("util.log_lines_per_trial", "lines",
          static_cast<double>(ref.log_lines));
  return out;
}

void print_json(const Report& r) {
  const bool correct = r.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = value() != "0";
    } else if (k == "--tiny") {
      a.tiny = true;
    } else if (k == "--spans-out") {
      a.spans_out = value();
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  return a;
}

/// Tiny runs keep every phase but shrink the simulated spans.
RepShape sized(RepShape s, bool tiny) {
  if (!tiny) return s;
  return {Duration{s.warmup.ns / 10}, Duration{s.window.ns / 10},
          s.drain_max};
}

}  // namespace

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

PairedReps run_pairs(
    const std::function<ScenarioFactory(std::size_t)>& make_for,
                     const std::function<void(std::size_t)>& before_pair,
                     const RepShape& shape, const Args& args, bool same_inputs,
                     SpanRecorder& rec, Report& out) {
  PairedReps p;
  p.untraced.reserve(kMaxReps);
  p.traced.reserve(kMaxReps);
  run_rep(make_for(0), shape, nullptr);  // one-time lazy initialization
  const Clock::time_point t0 = Clock::now();
  for (std::size_t k = 0; seconds_since(t0) < args.seconds || k < 2; ++k) {
    if (before_pair) before_pair(k);
    const ScenarioFactory make = make_for(k);
    const bool traced_first = (k % 2) == 1;
    if (traced_first) p.traced.push_back(run_rep(make, shape, &rec));
    p.untraced.push_back(run_rep(make, shape, nullptr));
    if (!traced_first) p.traced.push_back(run_rep(make, shape, &rec));
    const RepResult& u = p.untraced.back();
    const RepResult& t = p.traced.back();
    tally(u, out);
    tally(t, out);
    if (std::string d = counts_diff(u.counts, t.counts); !d.empty()) {
      out.fail("pair " + std::to_string(k) + ": traced differs: " + d);
    }
    if (same_inputs) {
      if (std::string d = counts_diff(p.untraced.front().counts, u.counts);
          !d.empty()) {
        out.fail("pair " + std::to_string(k) + ": rep differs: " + d);
      }
    }
    // Keep only the first rep's counts (see run_steady).
    Counts().swap(p.traced.back().counts);
    if (k > 0) Counts().swap(p.untraced.back().counts);
  }
  if (!args.spans_out.empty() && !rec.write_csv(args.spans_out)) {
    out.problems.push_back("could not write " + args.spans_out);
  }
  rec.fold();
  if (rec.overflowed() > 0) {
    out.problems.push_back(std::to_string(rec.overflowed()) +
                           " spans not recorded: one event filled the buffer");
  }
  std::printf("# %zu traced/untraced pairs in %.3f s\n", p.traced.size(),
              seconds_since(t0));
  return p;
}

void add_layer_metrics(const PairedReps& p, const SpanRecorder& rec,
                       Report& out) {
  double frames = 0, events = 0, traced_frames = 0, traced_events = 0;
  double allocs = 0, alloc_bytes = 0;
  double seen = 0, actions = 0, data = 0, acks = 0, retx = 0;
  double records = 0, flight_dropped = 0;
  for (const RepResult& r : p.untraced) {
    frames += static_cast<double>(r.window_frames);
    events += static_cast<double>(r.window_events);
    allocs += static_cast<double>(r.window_allocs.calls);
    alloc_bytes += static_cast<double>(r.window_allocs.bytes);
    seen += static_cast<double>(r.engine_seen);
    actions += static_cast<double>(r.engine_actions);
    data += static_cast<double>(r.rll_data);
    acks += static_cast<double>(r.rll_acks);
    retx += static_cast<double>(r.rll_retransmits);
    records += static_cast<double>(r.trace_records);
    flight_dropped += static_cast<double>(r.flight_dropped);
  }
  for (const RepResult& r : p.traced) {
    traced_frames += static_cast<double>(r.window_frames);
    traced_events += static_cast<double>(r.window_events);
  }
  const double reps = static_cast<double>(p.untraced.size());

  out.add("sim.events_per_frame", "events/frame", ratio(events, frames));
  out.add("sim.queue_depth_max", "events",
          static_cast<double>(rec.queue_depth_max()));
  out.add("sim.residual_ns_per_event", "ns/event",
          ratio(rec.self_ns(Bucket::kSim), traced_events));
  for (std::size_t b = 1; b < kBucketCount; ++b) {
    out.add(std::string(bucket_name(static_cast<Bucket>(b))) +
                ".self_ns_per_frame",
            "ns/frame",
            ratio(rec.self_ns(static_cast<Bucket>(b)), traced_frames));
  }
  out.add("host.allocs_per_frame", "allocs/frame", ratio(allocs, frames));
  out.add("host.alloc_bytes_per_frame", "B/frame", ratio(alloc_bytes, frames));
  for (std::size_t b = 0; b < kBucketCount; ++b) {
    const BucketTotals& t = rec.totals(static_cast<Bucket>(b));
    out.add(std::string(bucket_name(static_cast<Bucket>(b))) +
                ".allocs_per_frame",
            "allocs/frame",
            ratio(static_cast<double>(t.self_allocs), traced_frames));
  }
  out.add("engine.tuples_per_packet", "tuples/packet",
          median(collect(p.traced, [](const RepResult& r) {
            return r.tuples_per_packet;
          })));
  out.add("engine.classify_ns", "ns/packet",
          median(collect(p.traced, [](const RepResult& r) {
            return r.classify_ns;
          })));
  out.add("engine.actions_per_packet", "actions/packet", ratio(actions, seen));
  out.add("rll.acks_per_data", "acks/frame", ratio(acks, data));
  out.add("rll.retransmits_per_data", "retx/frame", ratio(retx, data));
  out.add("trace.records", "records", ratio(records, reps));
  out.add("obs.flight_dropped", "events", ratio(flight_dropped, reps));
  out.add("fsl.compile_ns", "ns",
          median(collect(p.untraced, [](const RepResult& r) {
            return r.compile_s * 1e9;
          })));
  out.add("control.arm_ns", "ns",
          median(collect(p.untraced,
                         [](const RepResult& r) { return r.arm_s * 1e9; })));
  std::vector<double> overhead;
  for (std::size_t i = 0; i < p.traced.size(); ++i) {
    overhead.push_back(
        (p.traced[i].window_wall_s / p.untraced[i].window_wall_s - 1) * 100);
  }
  out.add("bench.tracing_overhead_pct", "%", median(overhead));
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  install_log_counter();

  Report report;
  try {
    const std::string& w = args.workload;
    ScenarioFactory make;
    RepShape shape{};
    if (w == "tcp_bulk") {
      make = tcp_bulk(args.seed);
      shape = tcp_bulk_shape();
    } else if (w == "udp_small") {
      make = udp_small(args.seed);
      shape = udp_small_shape();
    } else if (w == "rether_ring") {
      make = rether_ring(args.seed);
      shape = rether_ring_shape();
    } else if (w != "chaos_campaign") {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", w.c_str());
      return 2;
    }
    shape = sized(shape, args.tiny);
    if (!make) {
      report = run_chaos(args);
    } else if (args.trace) {
      report = run_steady_traced(make, shape, args);
    } else {
      report = run_steady(make, shape, args);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& p : report.problems) {
    std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  }
  if (report.attempted == 0) report.fail("no operation ran");
  if (!args.trace) {
    const std::uint64_t ok =
        report.attempted - std::min(report.failed, report.attempted);
    report.add("success_rate", "ratio",
               ratio(static_cast<double>(ok),
                     static_cast<double>(report.attempted)));
  }
  print_json(report);
  return report.failed == 0 ? 0 : 1;
}
