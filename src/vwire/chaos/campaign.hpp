// Chaos campaign engine (DESIGN.md §8): randomized fault-schedule
// exploration with cross-layer invariant checking, deterministic replay,
// and failing-schedule minimization.
//
// A campaign is N independent trials over one fixture.  Trial i's fault
// schedule, medium seed and workload are all derived from the single
// campaign seed through util/rng's named child streams, and every trial
// runs in a freshly-built Testbed — so any trial replays bit-identically
// from (campaign_seed, trial_index) alone, verified byte-for-byte against
// the run's telemetry JSONL.  When a trial violates an invariant, ddmin
// shrinks its schedule to a minimal still-failing event set and the result
// is packaged as a self-contained repro artifact.
#pragma once

#include <atomic>
#include <functional>

#include "vwire/chaos/fixtures.hpp"
#include "vwire/obs/flight.hpp"

namespace vwire::chaos {

struct TrialResult {
  u64 trial_index{0};
  FaultSchedule schedule;
  bool ran{false};             ///< the scenario armed and supervised
  bool scenario_passed{false}; ///< ScenarioResult::passed() (informational)
  u64 effective_seed{0};
  std::vector<Violation> violations;
  /// Per-trial provenance rollup (from the scenario result).
  u64 firings{0};
  u64 link_events{0};
  /// The run's full telemetry report (JSONL text) — the replay-comparison
  /// artifact.  Campaign::run() drops it unless keep_telemetry is set.
  std::string telemetry;
  /// Causal flight-recorder timeline (merged across nodes), captured only
  /// when the trial violated an invariant — the "what led up to it" record
  /// that ships inside the repro artifact.
  std::vector<obs::SpanEvent> timeline;
  /// Span events the recorders evicted before the snapshot (ring overflow).
  u64 timeline_dropped{0};

  bool ok() const { return ran && violations.empty(); }
};

struct CampaignConfig {
  std::string fixture{"fig7"};
  u64 seed{1};
  std::size_t trials{25};
  /// Worker threads; 1 = serial.  Results are identical either way (each
  /// trial is self-contained), only wall-clock changes.
  std::size_t workers{1};
  /// Retain each TrialResult::telemetry in the summary (memory-heavy).
  bool keep_telemetry{false};
  /// Run ddmin on the first failing trial and attach a repro artifact.
  bool minimize{true};
  /// Stop launching new trials after the first violation.
  bool stop_on_violation{false};
  /// Let the generator draw Byzantine soft-state corruptions (kStateFault)
  /// from the fixture's state_fault_kinds().  Off by default so existing
  /// campaigns keep their draw sequences bit-identical.
  bool state_faults{false};
  /// Post-run drain budget for the packet-conservation check.
  Duration drain_grace{millis(200)};
  /// Invariant-probe period during supervision.
  Duration probe_period{millis(5)};

  // --- long-running-service robustness (DESIGN.md §11) -------------------

  /// Per-trial wall-clock watchdog, in real milliseconds (0 = off).  A
  /// trial that exceeds the deadline is aborted cooperatively (between
  /// supervision ticks) and quarantined as a structured "trial-timeout"
  /// violation instead of wedging its worker forever.  The same deadline
  /// bounds every ddmin probe run, so minimization of a hung trial stays
  /// bounded too.
  i64 trial_timeout_ms{0};
  /// Transient-infrastructure retry: a trial that *throws* (as opposed to
  /// violating an invariant) is re-run up to this many extra times, with
  /// retry_backoff_ms, 2x, 4x… waits between attempts, before the
  /// exception is recorded as a "trial-exception" violation.  Determinism
  /// makes retry safe: a deterministic throw simply re-throws and the
  /// budget bounds the waste.
  u32 trial_retries{0};
  i64 retry_backoff_ms{50};
  /// Wall-clock budget for ddmin minimization (0 = unbounded).  When the
  /// budget runs out mid-search the best (smallest) still-failing
  /// schedule found so far is returned.
  i64 minimize_budget_ms{0};
  /// Lifecycle hook: invoked as each trial completes, serialized under an
  /// internal mutex (so the callee may append to a journal or update
  /// progress counters without its own locking).  Called before the
  /// summary drops telemetry, with the trial's full result.
  std::function<void(const TrialResult&)> on_trial;
  /// Cooperative cancellation (graceful drain): when set and it becomes
  /// true, workers finish their in-flight trial and stop claiming new
  /// ones.  Combined with `on_trial` journaling, a cancelled campaign
  /// resumes later via run_from() with nothing lost and nothing re-run.
  const std::atomic<bool>* cancel{nullptr};
};

/// Self-contained failing-trial package: enough to reproduce the violation
/// anywhere (schedule carries its own seed provenance) plus the generated
/// FSL for human inspection.
struct ReproArtifact {
  std::string fixture;
  FaultSchedule schedule;           ///< minimized (or original) schedule
  std::size_t original_events{0};   ///< event count before minimization
  std::vector<Violation> violations;
  std::string fsl;                  ///< FSL rules the schedule generates
  /// Flight-recorder causal timeline from the (minimized, if available)
  /// failing run — render with `vwire-trace`.
  std::vector<obs::SpanEvent> timeline;
  u64 timeline_dropped{0};          ///< ring evictions before the snapshot

  std::string to_json() const;
  static ReproArtifact from_json(std::string_view text);  // throws
  /// Same loader over an already-parsed value (e.g. the "repro" member of
  /// a campaign summary document).
  static ReproArtifact from_value(const obs::JsonValue& v);  // throws
};

struct CampaignSummary {
  std::string fixture;
  u64 seed{0};
  std::size_t trials_requested{0};
  std::size_t trials_run{0};
  std::vector<u64> failing_trials;
  u64 total_firings{0};
  u64 total_link_events{0};
  std::vector<TrialResult> results;  ///< indexed by trial order
  /// Present when a trial failed and minimization ran.
  std::optional<ReproArtifact> repro;

  bool ok() const { return failing_trials.empty(); }
  /// Campaign summary export: per-trial provenance (schedule sizes,
  /// violations, firing counts) under a versioned "chaos_campaign" schema.
  std::string to_json() const;
  std::string summary_line() const;
};

class Campaign {
 public:
  explicit Campaign(CampaignConfig cfg);

  /// Runs the whole campaign (serially or on cfg.workers threads).
  CampaignSummary run();

  /// Resume: like run(), but trials present in `completed` (matched by
  /// trial_index) are taken as-is instead of re-executed.  Because every
  /// trial is a pure function of (seed, trial_index), the merged summary
  /// is byte-identical to an uninterrupted run's — this is what makes a
  /// checkpoint journal (chaos/checkpoint.hpp) sufficient to survive a
  /// crash or a graceful drain.  Entries with out-of-range indices are
  /// ignored.
  CampaignSummary run_from(std::vector<TrialResult> completed);

  /// One trial, from scratch, deterministically: generates the schedule
  /// for (cfg.seed, index) and executes it in a fresh harness.  Calling
  /// this twice with the same index yields byte-identical telemetry.
  TrialResult run_trial(u64 index) const;

  /// The deterministic schedule trial `index` would run.  Regeneration is
  /// RNG draws over the fixture's cached description (describe_fixture) —
  /// no harness or testbed is built — which is how checkpoint resume
  /// rebuilds the schedules of journaled trials without re-executing them.
  /// Throws std::invalid_argument for an unknown fixture.
  FaultSchedule schedule_for(u64 index) const;

  /// Executes an explicit schedule (a ddmin candidate or a loaded repro)
  /// under the schedule's own seed provenance.
  TrialResult run_schedule(const FaultSchedule& schedule) const;

  const CampaignConfig& config() const { return cfg_; }

 private:
  CampaignConfig cfg_;
};

/// Delta-debugging (ddmin) minimization: the smallest subsequence of
/// `failing.events` for which `still_fails` holds.  `still_fails(failing)`
/// must be true on entry; the predicate is re-evaluated on real runs, so
/// minimization only trusts violations that actually reproduce.
/// `wall_budget_ms` > 0 bounds the search in real time: when it runs out
/// the best still-failing schedule found so far is returned (minimization
/// is best-effort; the unminimized schedule is still a valid repro).
FaultSchedule minimize_schedule(
    const FaultSchedule& failing,
    const std::function<bool(const FaultSchedule&)>& still_fails,
    i64 wall_budget_ms = 0);

}  // namespace vwire::chaos
