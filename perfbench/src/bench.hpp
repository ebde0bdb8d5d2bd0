// Shared types of the repository benchmark: the scenario interface each
// workload implements, one measured repetition ("rep") of a scenario, and
// the metric list a run prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alloc_count.hpp"
#include "spans.hpp"
#include "vwire/core/api/testbed.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of `v` (0 when empty); sorts a copy.
double median(std::vector<double> v);
/// Nearest-rank percentile `p` in [0, 100] of `v` (0 when empty).
double percentile(std::vector<double> v, double p);

/// Deterministic work counts of one rep: equal for equal inputs, whether
/// traced or not.
using Counts = std::vector<std::pair<std::string, std::uint64_t>>;

/// What a scenario's own output checks found.
struct Outcome {
  std::uint64_t attempted{0};  ///< operations the workload started
  std::uint64_t failed{0};     ///< operations that failed a check
  double rtt_p99_us{0};        ///< simulated round trip, p99
};

/// One workload instance on a freshly built testbed.  The constructor
/// builds the testbed, its stacks and applications; everything after it
/// is driven by run_rep().
class Scenario {
 public:
  virtual ~Scenario() = default;

  virtual vwire::Testbed& testbed() = 0;
  /// The FSL script to lint, compile and arm.
  virtual std::string script() = 0;
  virtual std::string control_node() const = 0;
  /// Starts the offered load (after arming).
  virtual void start() = 0;
  /// Stops offering new operations; in-flight ones may still complete.
  virtual void stop() = 0;
  /// True once every started operation has resolved.
  virtual bool drained() const = 0;
  /// Application payload bytes delivered so far.
  virtual std::uint64_t app_bytes() const = 0;
  virtual Outcome outcome() = 0;
  /// Workload-specific deterministic counts to compare between reps.
  virtual void extra_counts(Counts& counts) { (void)counts; }
};

using ScenarioFactory = std::function<std::unique_ptr<Scenario>()>;

/// Simulated phases of one rep.
struct RepShape {
  vwire::Duration warmup;    ///< load runs before the measured window
  vwire::Duration window;    ///< the measured window
  vwire::Duration drain_max; ///< bound on waiting for in-flight operations
};

/// Names the first field where `a` and `b` differ ("" when equal).
std::string counts_diff(const Counts& a, const Counts& b);

/// Prints "# counts {...}": the deterministic counts a traced and an
/// untraced run of the same seed must both print.
void print_counts(const Counts& c);

struct RepResult {
  Counts counts;
  Outcome outcome;
  // Wall-clock timings, seconds.
  double setup_s{0};
  double window_wall_s{0};
  double rep_wall_s{0};
  double build_s{0};
  double generate_s{0};
  double lint_s{0};
  double compile_s{0};
  double arm_s{0};
  double verify_s{0};  ///< traced reps only
  // Simulated and counted quantities.
  double window_sim_s{0};
  std::uint64_t window_frames{0};
  std::uint64_t window_events{0};
  AllocCounts window_allocs;
  std::uint64_t rep_allocs{0};
  std::uint64_t window_app_bytes{0};
  std::uint64_t telemetry_bytes{0};
  std::uint64_t log_lines{0};
  // Summed over nodes, for the per-layer ratios.
  std::uint64_t engine_seen{0};
  std::uint64_t engine_actions{0};
  std::uint64_t rll_data{0};
  std::uint64_t rll_acks{0};
  std::uint64_t rll_retransmits{0};
  std::uint64_t trace_records{0};
  std::uint64_t flight_dropped{0};
  // Traced reps only.
  double classify_ns{0};
  double tuples_per_packet{0};
};

/// Runs one rep: build, generate, lint, compile, arm (the set-up), warm
/// up, measure the window, drain, check, render the telemetry report.
/// With `rec` the stacks get boundary shims after arming and the window
/// is recorded.
RepResult run_rep(const ScenarioFactory& make, const RepShape& shape,
                  SpanRecorder* rec);

/// Log lines the library emitted so far (counted through its log sink).
std::uint64_t log_lines();
void install_log_counter();

/// One printed metric.
struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// What one invocation prints: the verdict, the operation counts and the
/// metrics.  `problems` go to standard error.
struct Report {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  void add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
  void fail(std::string problem) {
    ++failed;
    problems.push_back(std::move(problem));
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  /// Small sizes for the benchmark's own tests.
  bool tiny{false};
  /// Optional CSV dump of the spans still unfolded at the end of a traced
  /// run (the most recent, up to the buffer's capacity).
  std::string spans_out;
};

/// Peak resident set of this process, MB.
double peak_rss_mb();

/// Traced run shared by every workload: pairs of one untraced and one
/// traced rep on the same inputs (alternating which goes first) until the
/// time budget is spent.  `make_for(k)` gives pair k's scenario and
/// `before_pair(k)`, when set, runs first.  Each pair must give equal
/// counts; with `same_inputs` every pair runs the same inputs and all
/// untraced reps must match too.  Mismatches are failures in `out`.
struct PairedReps {
  std::vector<RepResult> untraced;
  std::vector<RepResult> traced;
};
PairedReps run_pairs(
    const std::function<ScenarioFactory(std::size_t)>& make_for,
                     const std::function<void(std::size_t)>& before_pair,
                     const RepShape& shape, const Args& args, bool same_inputs,
                     SpanRecorder& rec, Report& out);
/// Adds the per-layer metrics of a traced run and the tracing overhead.
void add_layer_metrics(const PairedReps& pairs, const SpanRecorder& rec,
                       Report& out);

/// The chaos_campaign workload, traced or not.
Report run_chaos(const Args& args);

}  // namespace perfbench
