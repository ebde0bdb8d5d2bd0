// Chaos fixtures — one fresh, fully-assembled trial environment per call.
//
// Trial isolation is structural: a TrialHarness owns its own Testbed and
// workload applications, built from scratch for every trial (and for every
// replay and every ddmin probe), so no state can leak between trials and a
// schedule's outcome is a pure function of (campaign_seed, trial_index).
//
// What a fixture *is* — its fault space and where generated rules attach —
// does not depend on any one trial.  That lives in a FixtureDescription,
// built once per process and shared read-only by every campaign worker, so
// generating a schedule or rendering a repro's FSL builds no testbed.
#pragma once

#include <memory>

#include "vwire/chaos/generator.hpp"
#include "vwire/chaos/invariants.hpp"
#include "vwire/core/api/scenario_runner.hpp"

namespace vwire::chaos {

class TrialHarness;

/// The trial-independent facts of one fixture.  Immutable once built;
/// safe to read from any number of threads.
struct FixtureDescription {
  std::string name;
  /// Where generated FSL rules attach (filter/counter the script declares).
  FslSite fsl_site;
  /// The fault space this fixture explores.
  ScheduleTemplate schedule;
  /// State-fault corruptions the *generator* may draw for this fixture
  /// when a campaign enables them (CampaignConfig::state_faults).  Only
  /// corruptions the fixture's invariants tolerate belong here; primitives
  /// meant to provoke violations (forged tokens, window regression) stay
  /// out of the generated space and are used through directed schedules.
  std::vector<StateFaultKind> state_fault_kinds;
  /// `schedule` widened by state_fault_kinds (and kStateFault, when there
  /// are any): the space a state-faults campaign explores.
  ScheduleTemplate schedule_with_state_faults;
  /// Builds a fresh harness for one trial.
  std::unique_ptr<TrialHarness> (*build)(const FixtureDescription&,
                                         u64 trial_seed){nullptr};

  const ScheduleTemplate& schedule_template(bool state_faults) const {
    return state_faults ? schedule_with_state_faults : schedule;
  }
};

/// The cached description of fixture `name` (one of harness_names(), or
/// the test-only "deadsite").  Throws std::invalid_argument otherwise.
const FixtureDescription& describe_fixture(std::string_view name);

class TrialHarness {
 public:
  explicit TrialHarness(const FixtureDescription& description)
      : description_(description) {}
  virtual ~TrialHarness() = default;

  virtual Testbed& testbed() = 0;

  /// The ScenarioSpec for one trial, with `fault_rules` (generated FSL
  /// rule lines, possibly empty) spliced into the SCENARIO body.  The
  /// caller still fills in crashes/link_faults/actions/probe/seed.
  virtual ScenarioSpec make_spec(const std::string& fault_rules) = 0;

  /// The fixture's FixtureDescription facts, for callers holding a harness.
  const FslSite& fsl_site() const { return description_.fsl_site; }
  const ScheduleTemplate& schedule_template() const {
    return description_.schedule;
  }
  const std::vector<StateFaultKind>& state_fault_kinds() const {
    return description_.state_fault_kinds;
  }

  /// Registers fixture-specific invariants (workload integrity, protocol
  /// state sanity).  Campaign-level invariants — conservation, RLL
  /// exactly-once, epoch monotonicity — are added by the campaign itself.
  virtual void register_invariants(InvariantSet& inv) = 0;

  /// Called after supervision ends, before the conservation drain: stop
  /// perpetual traffic sources (token rings) so the wire can go quiet.
  virtual void quiesce() {}

  /// Materializes one kStateFault event into `spec.actions` (a TimedAction
  /// corrupting live protocol state at e.at).  Returns false when this
  /// fixture cannot apply `e.state` to `e.node` — the campaign rejects the
  /// schedule, mirroring the kRllDupDeliver validation.
  virtual bool schedule_state_fault(const FaultEvent& e, ScenarioSpec& spec) {
    (void)e;
    (void)spec;
    return false;
  }

 private:
  const FixtureDescription& description_;
};

/// A fresh harness for fixture `name`: describe_fixture(name).build.
/// Throws std::invalid_argument for an unknown name.  `trial_seed`
/// parameterizes any workload randomness the fixture wants (current
/// fixtures are fully deterministic and ignore it).
std::unique_ptr<TrialHarness> make_harness(std::string_view name,
                                           u64 trial_seed);
std::vector<std::string> harness_names();

}  // namespace vwire::chaos
