// End-to-end campaign engine tests: clean exploration, bit-identical
// replay, serial/parallel equivalence, planted-bug detection with ddmin
// minimization, and artifact round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "vwire/chaos/campaign.hpp"
#include "vwire/obs/json.hpp"

namespace vwire::chaos {
namespace {

CampaignConfig small_fig7(u64 seed) {
  CampaignConfig cfg;
  cfg.fixture = "fig7";
  cfg.seed = seed;
  cfg.trials = 3;
  cfg.minimize = false;
  return cfg;
}

FaultSchedule planted_dup_schedule() {
  FaultSchedule bad;
  bad.campaign_seed = 42;
  bad.trial_index = 9001;
  FaultEvent decoy_cut;
  decoy_cut.kind = FaultKind::kLinkCut;
  decoy_cut.node = "node1";
  decoy_cut.at = millis(20);
  decoy_cut.until = millis(35);
  FaultEvent decoy_drop;
  decoy_drop.kind = FaultKind::kFslDrop;
  decoy_drop.pkt_lo = 5;
  decoy_drop.pkt_hi = 7;
  FaultEvent dup;
  dup.kind = FaultKind::kRllDupDeliver;
  dup.node = "node2";
  dup.at = millis(10);
  dup.until = millis(1000);
  bad.events = {decoy_cut, decoy_drop, dup};
  return bad;
}

TEST(Campaign, SmallFig7CampaignIsClean) {
  Campaign campaign(small_fig7(42));
  CampaignSummary s = campaign.run();
  EXPECT_TRUE(s.ok()) << s.to_json();
  EXPECT_EQ(s.trials_run, 3u);
  EXPECT_FALSE(s.repro.has_value());
  for (const TrialResult& r : s.results) {
    EXPECT_TRUE(r.ran);
    EXPECT_TRUE(r.scenario_passed);
  }
}

TEST(Campaign, ReplayIsByteIdentical) {
  Campaign campaign(small_fig7(42));
  TrialResult a = campaign.run_trial(1);
  TrialResult b = campaign.run_trial(1);
  ASSERT_FALSE(a.telemetry.empty());
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.telemetry, b.telemetry)
      << "same (campaign_seed, trial_index) must reproduce the run "
         "byte-for-byte";
}

TEST(Campaign, DistinctTrialsDiffer) {
  Campaign campaign(small_fig7(42));
  TrialResult a = campaign.run_trial(0);
  TrialResult b = campaign.run_trial(1);
  EXPECT_FALSE(a.schedule == b.schedule);
}

TEST(Campaign, WorkerPoolMatchesSerial) {
  CampaignConfig serial = small_fig7(7);
  serial.trials = 4;
  serial.keep_telemetry = true;
  CampaignConfig pooled = serial;
  pooled.workers = 2;
  CampaignSummary a = Campaign(serial).run();
  CampaignSummary b = Campaign(pooled).run();
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].schedule, b.results[i].schedule);
    EXPECT_EQ(a.results[i].violations.size(), b.results[i].violations.size());
    EXPECT_EQ(a.results[i].telemetry, b.results[i].telemetry)
        << "trial " << i << " must not depend on which thread ran it";
  }
}

TEST(Campaign, PlantedDuplicateDeliveryIsCaught) {
  Campaign campaign(small_fig7(42));
  TrialResult r = campaign.run_schedule(planted_dup_schedule());
  ASSERT_FALSE(r.ok());
  bool saw = false;
  for (const Violation& v : r.violations) {
    saw = saw || v.invariant == "rll-exactly-once";
  }
  EXPECT_TRUE(saw) << "expected the exactly-once audit to fire";
}

TEST(Campaign, VerifyPreflightRejectsDeadProvokingFault) {
  // The deadsite fixture never enables its CHAOS counter, so a windowed
  // provoking fault with pkt_lo >= 1 is provably unreachable — the
  // verification pre-flight must refuse to run the trial and blame the
  // generator, exactly like a lint failure.
  CampaignConfig cfg;
  cfg.fixture = "deadsite";
  cfg.seed = 42;
  cfg.trials = 1;
  cfg.minimize = false;
  Campaign campaign(cfg);

  FaultSchedule s;
  s.campaign_seed = 42;
  s.trial_index = 1;
  FaultEvent drop;
  drop.kind = FaultKind::kFslDrop;
  drop.pkt_lo = 5;
  drop.pkt_hi = 8;
  s.events = {drop};

  const TrialResult r = campaign.run_schedule(s);
  EXPECT_FALSE(r.ran);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations[0].invariant, "generated-script-verify");
}

TEST(Campaign, VerifyPreflightPassesLiveSite) {
  // The identical schedule on the healthy udp fixture (CHAOS enabled)
  // must arm and run: the provoking fault is genuinely reachable.
  CampaignConfig cfg;
  cfg.fixture = "udp";
  cfg.seed = 42;
  cfg.trials = 1;
  cfg.minimize = false;
  Campaign campaign(cfg);

  FaultSchedule s;
  s.campaign_seed = 42;
  s.trial_index = 1;
  FaultEvent drop;
  drop.kind = FaultKind::kFslDrop;
  drop.pkt_lo = 5;
  drop.pkt_hi = 8;
  s.events = {drop};

  const TrialResult r = campaign.run_schedule(s);
  EXPECT_TRUE(r.ran);
  for (const Violation& v : r.violations) {
    EXPECT_NE(v.invariant, "generated-script-verify") << v.detail;
  }
}

TEST(Campaign, MinimizationStripsDecoys) {
  Campaign campaign(small_fig7(42));
  const FaultSchedule bad = planted_dup_schedule();
  const FaultSchedule minimized =
      minimize_schedule(bad, [&campaign](const FaultSchedule& cand) {
        try {
          return !campaign.run_schedule(cand).ok();
        } catch (const std::exception&) {
          return true;
        }
      });
  EXPECT_LE(minimized.events.size(), 3u);
  ASSERT_FALSE(minimized.events.empty());
  bool kept = false;
  for (const FaultEvent& e : minimized.events) {
    kept = kept || e.kind == FaultKind::kRllDupDeliver;
  }
  EXPECT_TRUE(kept) << "ddmin must keep the causal event";
  // The 1-minimal result for this plant is the dup event alone.
  EXPECT_EQ(minimized.events.size(), 1u);
}

TEST(Campaign, CampaignRunAttachesMinimizedRepro) {
  // Make trial 0 of the campaign itself fail by planting the knob through
  // the generator's own space: run the planted schedule via a campaign
  // whose minimize step is exercised end-to-end.
  CampaignConfig cfg = small_fig7(42);
  cfg.trials = 1;
  cfg.minimize = true;
  Campaign campaign(cfg);
  // Sanity: the campaign's own randomized trial is clean...
  EXPECT_TRUE(campaign.run().ok());
  // ...so drive Campaign::run_schedule + minimize_schedule directly and
  // package the artifact the way Campaign::run() does on failure.
  const FaultSchedule bad = planted_dup_schedule();
  TrialResult failing = campaign.run_schedule(bad);
  ASSERT_FALSE(failing.ok());
  ReproArtifact art;
  art.fixture = cfg.fixture;
  art.schedule = minimize_schedule(bad, [&](const FaultSchedule& c) {
    return !campaign.run_schedule(c).ok();
  });
  art.original_events = bad.events.size();
  art.violations = failing.violations;
  const std::string json = art.to_json();
  ReproArtifact back = ReproArtifact::from_json(json);
  EXPECT_EQ(back.fixture, art.fixture);
  EXPECT_EQ(back.schedule, art.schedule);
  EXPECT_EQ(back.original_events, art.original_events);
  ASSERT_EQ(back.violations.size(), art.violations.size());
  EXPECT_EQ(back.violations[0].invariant, art.violations[0].invariant);
  // A loaded artifact replays to the same verdict.
  EXPECT_FALSE(campaign.run_schedule(back.schedule).ok());
}

// --- byzantine state faults (ISSUE 6) -------------------------------------

TEST(Campaign, ByzantineFig7CampaignIsClean) {
  // With state_faults on, fig7's generated space holds only the recoverable
  // congestion-state corruptions — the protocol must absorb all of them.
  CampaignConfig cfg = small_fig7(42);
  cfg.trials = 4;
  cfg.state_faults = true;
  CampaignSummary s = Campaign(cfg).run();
  EXPECT_TRUE(s.ok()) << s.to_json();
  std::size_t state_events = 0;
  for (const TrialResult& r : s.results) {
    for (const FaultEvent& e : r.schedule.events) {
      if (e.kind == FaultKind::kStateFault) ++state_events;
    }
  }
  EXPECT_GT(state_events, 0u) << "the byzantine space must actually be drawn";
}

TEST(Campaign, ByzantineReplayIsByteIdentical) {
  CampaignConfig cfg = small_fig7(42);
  cfg.state_faults = true;
  Campaign campaign(cfg);
  TrialResult a = campaign.run_trial(2);
  TrialResult b = campaign.run_trial(2);
  ASSERT_FALSE(a.telemetry.empty());
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.telemetry, b.telemetry)
      << "state-fault trials must replay byte-for-byte like any other";
}

TEST(Campaign, WindowCorruptionBreaksExactlyOnceAndMinimizes) {
  // kRllWindowCorrupt regresses node2's receive cursor mid-transfer: the
  // sender's go-back-N retransmits frames the sink already consumed, and
  // the always-on delivery audit must call that a duplicate delivery.
  Campaign campaign(small_fig7(42));
  FaultSchedule bad;
  bad.campaign_seed = 42;
  bad.trial_index = 9002;
  FaultEvent decoy_cut;
  decoy_cut.kind = FaultKind::kLinkCut;
  decoy_cut.node = "node1";
  decoy_cut.at = millis(20);
  decoy_cut.until = millis(30);
  FaultEvent corrupt;
  corrupt.kind = FaultKind::kStateFault;
  corrupt.state = StateFaultKind::kRllWindowCorrupt;
  corrupt.node = "node2";
  // Early in the transfer, while a delivered-but-unacked frame is still in
  // the sender's flight window — regression past the ack frontier only
  // deadlocks (and the epoch reset heals forward without a duplicate).
  corrupt.at = millis(10);
  corrupt.state_value = 1;
  bad.events = {decoy_cut, corrupt};

  TrialResult r = campaign.run_schedule(bad);
  ASSERT_FALSE(r.ok());
  bool saw = false;
  for (const Violation& v : r.violations) {
    saw = saw || v.invariant == "rll-exactly-once";
  }
  EXPECT_TRUE(saw) << "expected the exactly-once audit to fire";

  const FaultSchedule minimized =
      minimize_schedule(bad, [&campaign](const FaultSchedule& cand) {
        return !campaign.run_schedule(cand).ok();
      });
  ASSERT_EQ(minimized.events.size(), 1u) << "the decoy must be stripped";
  EXPECT_EQ(minimized.events[0].kind, FaultKind::kStateFault);
  EXPECT_EQ(minimized.events[0].state, StateFaultKind::kRllWindowCorrupt);
}

// The organic rether split brain (seed 5, trial 33 below) distilled to its
// essence: one duplicated live token is sufficient for two operational
// holders to share the maximum sequence.
TEST(Campaign, DirectedDupTokenSplitBrainOneLiner) {
  CampaignConfig cfg;
  cfg.fixture = "rether";
  Campaign campaign(cfg);
  FaultSchedule bad;
  FaultEvent dup;
  dup.kind = FaultKind::kStateFault;
  dup.state = StateFaultKind::kDupTokenSeq;
  dup.node = "r3";
  dup.at = millis(100);
  bad.events = {dup};
  TrialResult r = campaign.run_schedule(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations[0].invariant, "rether-single-token");
}

TEST(Campaign, FailingTrialCapturesAFlightTimelineIntoTheArtifact) {
  // The chaos_repro artifact must carry the causal timeline of the failing
  // run (DESIGN.md §12): events exist, round-trip through JSON, and the
  // span ids the violation involves are in there.
  CampaignConfig cfg;
  cfg.fixture = "rether";
  Campaign campaign(cfg);
  FaultSchedule bad;
  FaultEvent dup;
  dup.kind = FaultKind::kStateFault;
  dup.state = StateFaultKind::kDupTokenSeq;
  dup.node = "r3";
  dup.at = millis(100);
  bad.events = {dup};
  TrialResult r = campaign.run_schedule(bad);
  ASSERT_FALSE(r.ok());
  ASSERT_FALSE(r.timeline.empty()) << "violating trials must snapshot spans";

  ReproArtifact art;
  art.fixture = cfg.fixture;
  art.schedule = bad;
  art.original_events = 1;
  art.violations = r.violations;
  art.timeline = r.timeline;
  art.timeline_dropped = r.timeline_dropped;
  const ReproArtifact back = ReproArtifact::from_json(art.to_json());
  ASSERT_EQ(back.timeline.size(), art.timeline.size());
  EXPECT_EQ(back.timeline_dropped, art.timeline_dropped);
  EXPECT_EQ(back.timeline.front().node, art.timeline.front().node);
  EXPECT_EQ(back.timeline.back().span, art.timeline.back().span);
  EXPECT_EQ(back.timeline.back().kind, art.timeline.back().kind);
}

TEST(Campaign, PreTimelineArtifactsStillLoad) {
  // v7-and-earlier artifacts have no "timeline" member; loading one must
  // not throw and must leave the timeline empty.
  FaultSchedule sched;
  sched.campaign_seed = 1;
  const std::string legacy =
      R"({"v":1,"type":"chaos_repro","fixture":"fig7","original_events":2,)"
      R"("violations":[],"schedule":)" + sched.to_json() + "}";
  const ReproArtifact art = ReproArtifact::from_json(legacy);
  EXPECT_EQ(art.fixture, "fig7");
  EXPECT_TRUE(art.timeline.empty());
  EXPECT_EQ(art.timeline_dropped, 0u);
}

TEST(Campaign, UnsupportedStateFaultRejected) {
  Campaign campaign(small_fig7(42));
  FaultSchedule bad;
  FaultEvent e;
  e.kind = FaultKind::kStateFault;
  e.state = StateFaultKind::kForgeTokenSeq;  // fig7 has no token ring
  e.node = "node1";
  bad.events = {e};
  EXPECT_THROW((void)campaign.run_schedule(bad), std::exception);
  e.state = StateFaultKind::kTcpCwndForce;
  e.node = "no-such-node";
  bad.events = {e};
  EXPECT_THROW((void)campaign.run_schedule(bad), std::exception);
}

TEST(Campaign, UnknownDupNodeRejected) {
  Campaign campaign(small_fig7(42));
  FaultSchedule bad;
  FaultEvent dup;
  dup.kind = FaultKind::kRllDupDeliver;
  dup.node = "no-such-node";
  bad.events = {dup};
  EXPECT_THROW((void)campaign.run_schedule(bad), std::exception);
}

TEST(Campaign, SummaryJsonIsWellFormed) {
  CampaignConfig cfg = small_fig7(11);
  cfg.trials = 2;
  CampaignSummary s = Campaign(cfg).run();
  const obs::JsonValue v = obs::JsonValue::parse(s.to_json());
  EXPECT_EQ(v.str("type"), "chaos_campaign");
  EXPECT_EQ(v.str("fixture"), "fig7");
  EXPECT_EQ(v.num("trials_run"), 2.0);
  EXPECT_EQ(v.at("trials").as_array().size(), 2u);
}

TEST(Campaign, UnknownFixtureRejected) {
  CampaignConfig cfg;
  cfg.fixture = "bogus";
  Campaign campaign(cfg);
  EXPECT_THROW((void)campaign.run_trial(0), std::invalid_argument);
}

// schedule_for reads the fixture's cached description; the schedules must
// be exactly what the original path produced from a freshly built harness.
TEST(Campaign, ScheduleForMatchesAFreshHarnessTemplate) {
  for (const std::string& fixture : harness_names()) {
    for (const bool state_faults : {false, true}) {
      CampaignConfig cfg;
      cfg.fixture = fixture;
      cfg.seed = 77;
      cfg.state_faults = state_faults;
      const Campaign campaign(cfg);
      for (u64 i = 0; i < 32; ++i) {
        const std::unique_ptr<TrialHarness> h = make_harness(fixture, 0);
        ScheduleTemplate tmpl = h->schedule_template();
        if (state_faults) {
          tmpl.state_kinds = h->state_fault_kinds();
          if (!tmpl.state_kinds.empty() &&
              std::find(tmpl.allowed.begin(), tmpl.allowed.end(),
                        FaultKind::kStateFault) == tmpl.allowed.end()) {
            tmpl.allowed.push_back(FaultKind::kStateFault);
          }
        }
        EXPECT_EQ(campaign.schedule_for(i),
                  generate_schedule(cfg.seed, i, tmpl))
            << fixture << " state_faults=" << state_faults << " trial " << i;
      }
    }
  }
}

TEST(Campaign, ScheduleForUnknownFixtureThrows) {
  CampaignConfig cfg;
  cfg.fixture = "bogus";
  const Campaign campaign(cfg);
  EXPECT_THROW((void)campaign.schedule_for(0), std::invalid_argument);
  EXPECT_THROW((void)describe_fixture("bogus"), std::invalid_argument);
}

// Campaign workers share one cached description per fixture; concurrent
// readers must see the same schedules a serial caller does (the TSan job
// runs this suite).
TEST(Campaign, ConcurrentScheduleForAgreesWithSerial) {
  CampaignConfig cfg;
  cfg.fixture = "fig7";
  cfg.seed = 5;
  cfg.state_faults = true;
  const Campaign campaign(cfg);
  constexpr std::size_t kThreads = 4;
  constexpr u64 kTrials = 16;
  std::vector<std::vector<FaultSchedule>> got(kThreads);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&campaign, &got, t] {
      for (u64 i = 0; i < kTrials; ++i) {
        got[t].push_back(campaign.schedule_for(i));
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), kTrials);
    for (u64 i = 0; i < kTrials; ++i) {
      EXPECT_EQ(got[t][i], campaign.schedule_for(i)) << "thread " << t;
    }
  }
}

// The organic finding (EXPERIMENTS.md §chaos): on the rether fixture, two
// healed partitions can both regenerate a token from the same observed
// history, colliding on the same sequence number — a genuine split-brain
// the uniqueness probe catches.  Fully deterministic given (seed, index).
TEST(Campaign, RetherSplitBrainTrialReproduces) {
  CampaignConfig cfg;
  cfg.fixture = "rether";
  cfg.seed = 5;
  Campaign campaign(cfg);
  TrialResult r = campaign.run_trial(33);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations[0].invariant, "rether-single-token");
}

}  // namespace
}  // namespace vwire::chaos
