// chaos_campaign: closed-loop chaos trials over the fig7 and udp fixtures
// with the default fault space, on one worker thread.  Trial j is trial
// j/2 of the fixture j%2, so both fixtures advance together.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <thread>

#include "vwire/chaos/fixtures.hpp"
#include "vwire/core/fsl/compiler.hpp"
#include "vwire/core/fsl/verify.hpp"
#include "vwire/util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace vwire;

namespace {

constexpr const char* kFixtures[] = {"fig7", "udp"};
/// One worker: with two, a run's speed also follows the neighbours of a
/// second core, and the fastest-run figures of one process spread about
/// five times wider.
constexpr std::size_t kWorkers = 1;
/// The untraced run first runs this many trials once each; the simulated
/// metrics come from them, so they are a function of the seed alone.
constexpr std::size_t kSimOps = 512;
/// It then cycles through the first this many until the time is up; the
/// host-time metrics come from these, each run several times.
constexpr std::size_t kTimedOps = 256;
/// Both counts when tiny.
constexpr std::size_t kTinySimOps = 8;

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

/// The number after `key` in `text` (0 when absent).
double number_after(const std::string& text, std::string_view key) {
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return 0;
  return std::strtod(text.c_str() + at + key.size(), nullptr);
}

/// Simulated figures read back from one trial's telemetry report.
struct TrialFigures {
  double frames{0};
  double bytes{0};
  double sim_s{0};
  double rll_rtt_p99_us{0};  ///< worst node's RLL round trip, p99
};

TrialFigures read_figures(const std::string& jsonl) {
  TrialFigures f;
  f.frames = number_after(jsonl,
                          "\"name\":\"phy.medium.frames_delivered\","
                          "\"kind\":\"counter\",\"value\":");
  f.bytes = number_after(jsonl,
                         "\"name\":\"phy.medium.bytes_delivered\","
                         "\"kind\":\"counter\",\"value\":");
  f.sim_s = number_after(jsonl, "\"ended_at_ns\":") * 1e-9;
  for (std::size_t at = jsonl.find("\"name\":\"rll."); at != std::string::npos;
       at = jsonl.find("\"name\":\"rll.", at + 1)) {
    const std::size_t eol = jsonl.find('\n', at);
    const std::string line = jsonl.substr(at, eol - at);
    if (line.find(".rtt_us\"") == std::string::npos) continue;
    f.rll_rtt_p99_us =
        std::max(f.rll_rtt_p99_us, number_after(line, "\"p99\":"));
  }
  return f;
}

/// Deterministic fingerprint of one trial's telemetry.
Counts trial_counts(const std::string& jsonl) {
  const TrialFigures f = read_figures(jsonl);
  return {{"trial.telemetry_bytes", jsonl.size()},
          {"trial.frames", static_cast<std::uint64_t>(f.frames)},
          {"trial.bytes", static_cast<std::uint64_t>(f.bytes)},
          {"trial.sim_end_ns",
           static_cast<std::uint64_t>(f.sim_s * 1e9 + 0.5)}};
}

struct OpResult {
  std::size_t op{0};
  bool ok{false};
  double wall_s{0};
  TrialFigures fig;
  std::size_t digest{0};  ///< hash of the rendered telemetry
  std::string telemetry;  ///< kept for the replay check (first ops only)
};

std::vector<chaos::Campaign> make_campaigns(std::uint64_t seed) {
  std::vector<chaos::Campaign> out;
  for (const char* f : kFixtures) {
    chaos::CampaignConfig cfg;
    cfg.fixture = f;
    cfg.seed = seed;
    cfg.workers = kWorkers;
    cfg.minimize = false;
    out.emplace_back(cfg);
  }
  return out;
}

/// Campaign construction up to the first trial: the campaigns, each
/// fixture's fault-space template, and the workers ready to claim trials.
double setup_once(std::uint64_t seed) {
  const Clock::time_point t0 = Clock::now();
  const std::vector<chaos::Campaign> campaigns = make_campaigns(seed);
  for (const chaos::Campaign& c : campaigns) {
    (void)chaos::make_harness(c.config().fixture, 0)->schedule_template();
  }
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
    });
  }
  while (ready.load() < kWorkers) std::this_thread::yield();
  const double s = seconds_since(t0);
  go.store(true);
  for (std::thread& t : workers) t.join();
  return s;
}

/// Untraced: the workers run the first kSimOps trials, then cycle through
/// the first kTimedOps of them until the time is up.  Trials differ from
/// one another but each is deterministic (every run must render the same
/// telemetry), so, as with a steady workload's reps (see run_steady), a
/// trial's cost is its fastest run: slower runs are host interference.
/// Set-up likewise counts at its fastest.
Report run_untraced(const Args& args) {
  Report out;
  const std::vector<chaos::Campaign> campaigns = make_campaigns(args.seed);
  for (const chaos::Campaign& c : campaigns) (void)c.run_trial(0);  // warm

  const std::size_t trials = args.tiny ? kTinySimOps : kSimOps;
  const std::size_t timed = args.tiny ? kTinySimOps : kTimedOps;
  // Trial j of op k: j is trial j/2 of the fixture j%2.
  auto trial_of = [&](std::size_t k) { return k < trials ? k : k % timed; };
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> running{kWorkers};
  std::mutex mu;
  std::vector<OpResult> results;  // guarded by mu
  results.reserve(1 << 15);
  const Clock::time_point t0 = Clock::now();
  auto worker = [&] {
    while (true) {
      const std::size_t k = next.fetch_add(1);
      if (k >= trials && seconds_since(t0) >= args.seconds) break;
      const std::size_t j = trial_of(k);
      OpResult r;
      r.op = k;
      const Clock::time_point t = Clock::now();
      chaos::TrialResult tr = campaigns[j % 2].run_trial(j / 2);
      r.wall_s = seconds_since(t);
      r.ok = tr.ok();
      r.fig = read_figures(tr.telemetry);
      r.digest = std::hash<std::string>{}(tr.telemetry);
      if (k < 2) r.telemetry = std::move(tr.telemetry);
      const std::lock_guard<std::mutex> lock(mu);
      results.push_back(std::move(r));
    }
    running.fetch_sub(1);
  };
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) workers.emplace_back(worker);
  // Set-up is sampled alongside the trials, so it sees the same host.
  std::vector<double> setups;
  while (running.load() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    setups.push_back(setup_once(args.seed));
  }
  for (std::thread& t : workers) t.join();
  const double loop_s = seconds_since(t0);
  std::sort(results.begin(), results.end(),
            [](const OpResult& a, const OpResult& b) { return a.op < b.op; });

  std::vector<double> best(timed);
  for (const OpResult& r : results) {
    ++out.attempted;
    if (!r.ok) {
      out.fail("op " + std::to_string(r.op) + " violated an invariant");
    }
    const std::size_t j = trial_of(r.op);
    if (r.op == j) {
      if (j < timed) best[j] = r.wall_s;
    } else {
      best[j] = std::min(best[j], r.wall_s);
      if (r.digest != results[j].digest) {
        out.fail("op " + std::to_string(r.op) + " rendered other telemetry"
                 " than the first run of its trial");
      }
    }
  }
  // Determinism: the first trial of each fixture, run again, must render
  // byte-identical telemetry.
  for (std::size_t k = 0; k < 2 && k < results.size(); ++k) {
    ++out.attempted;
    if (campaigns[k % 2].run_trial(k / 2).telemetry != results[k].telemetry) {
      out.fail(std::string("replay of ") + kFixtures[k % 2] +
               " trial 0 rendered different telemetry");
    }
  }

  // Every op up to the last one run was run, so results[j] is op j.
  std::vector<double> best_ms, rtts;
  double sim = 0, frames = 0, busy = 0, sim_bytes = 0, sim_time = 0;
  for (std::size_t j = 0; j < trials; ++j) {
    const TrialFigures& f = results[j].fig;
    sim_bytes += f.bytes;
    sim_time += f.sim_s;
    rtts.push_back(f.rll_rtt_p99_us);
    if (j < timed) {
      sim += f.sim_s;
      frames += f.frames;
      best_ms.push_back(best[j] * 1e3);
      busy += best[j] / kWorkers;  // kWorkers trials run at a time
    }
  }
  out.add("setup_s", "s", *std::min_element(setups.begin(), setups.end()));
  out.add("sim_speed", "sim_s/s", sim / busy);
  out.add("frames_per_s", "frames/s", frames / busy);
  out.add("trials_per_s", "trials/s", static_cast<double>(timed) / busy);
  // A mean: the median of a two-fixture mix falls between the fixtures'
  // costs and moves with the seed's schedules.
  out.add("trial_ms", "ms", mean(best_ms));
  std::printf("# %zu runs, %zu timed trials, %zu set-ups in %.3f s; p99 of"
              " the trials' fastest runs %.3f ms; set-up p50 %.3f ms\n",
              results.size(), timed, setups.size(), loop_s,
              percentile(best_ms, 99), median(setups) * 1e3);
  out.add("peak_rss_MB", "MB", peak_rss_mb());
  out.add("sim_goodput_Mbps", "sim_Mbps", sim_bytes * 8 / sim_time / 1e6);
  out.add("sim_rtt_p99_us", "sim_us", mean(rtts));
  if (!results.empty()) print_counts(trial_counts(results.front().telemetry));
  return out;
}

/// Traced: per operation, times the campaign's own steps on that trial's
/// inputs (schedule generation, harness build, lint, verification, the
/// whole trial), then runs the trial's replica traced and untraced.
Report run_traced(const Args& args) {
  Report out;
  const std::vector<chaos::Campaign> campaigns = make_campaigns(args.seed);
  std::vector<double> gen, build, lint, verify, trial, allocs, telemetry, logs;
  auto time_campaign_steps = [&](std::size_t k) {
    const chaos::Campaign& c = campaigns[k % 2];
    const u64 index = k / 2;
    Clock::time_point t = Clock::now();
    const chaos::FaultSchedule schedule = c.schedule_for(index);
    gen.push_back(seconds_since(t) * 1e9);

    t = Clock::now();
    const std::unique_ptr<chaos::TrialHarness> h = chaos::make_harness(
        c.config().fixture,
        derive_seed(schedule.campaign_seed, "trial.workload", index));
    build.push_back(seconds_since(t) * 1e9);

    const ScenarioSpec spec =
        h->make_spec(chaos::fsl_rules(schedule, h->fsl_site()));
    fsl::CompileOptions opts;
    opts.scenario = spec.scenario;
    opts.lint = true;
    t = Clock::now();
    const fsl::CompileResult checked = fsl::check_script(spec.script, opts);
    lint.push_back(seconds_since(t) * 1e9);
    t = Clock::now();
    (void)fsl::mc::verify_tables(checked.tables);
    verify.push_back(seconds_since(t) * 1e9);

    const AllocCounts a0 = thread_allocs();
    const std::uint64_t l0 = log_lines();
    t = Clock::now();
    const chaos::TrialResult r = c.run_trial(index);
    trial.push_back(seconds_since(t) * 1e9);
    allocs.push_back(static_cast<double>(thread_allocs().calls - a0.calls));
    logs.push_back(static_cast<double>(log_lines() - l0));
    telemetry.push_back(static_cast<double>(r.telemetry.size()));
    if (k == 0) print_counts(trial_counts(r.telemetry));
    ++out.attempted;
    if (!r.ok()) out.fail("op " + std::to_string(k) + " violated an invariant");
  };

  SpanRecorder rec(1u << 18);
  const PairedReps pairs = run_pairs(
      [&campaigns](std::size_t k) {
        return chaos_replica(campaigns[k % 2], k / 2);
      },
      time_campaign_steps, chaos_replica_shape(), args,
      /*same_inputs=*/false, rec, out);
  add_layer_metrics(pairs, rec, out);
  out.add("chaos.generate_ns", "ns", median(gen));
  out.add("api.testbed_build_ns", "ns", median(build));
  out.add("fsl.lint_ns", "ns", median(lint));
  out.add("fsl.verify_ns", "ns", median(verify));
  out.add("chaos.trial_ns", "ns", median(trial));
  out.add("chaos.trial_p99_ns", "ns", percentile(trial, 99));
  out.add("chaos.allocs_per_trial", "allocs", mean(allocs));
  out.add("obs.telemetry_bytes_per_trial", "B", mean(telemetry));
  out.add("util.log_lines_per_trial", "lines", mean(logs));
  return out;
}

}  // namespace

Report run_chaos(const Args& args) {
  return args.trace ? run_traced(args) : run_untraced(args);
}

}  // namespace perfbench
