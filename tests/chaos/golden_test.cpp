// Replay goldens for every chaos fixture.  Each trial's telemetry report —
// metrics, verdicts and every rule `firing` record with its counter and term
// snapshots and cascade depth — must replay byte-identically from
// (campaign_seed, trial_index), and must hash to the value pinned below.
//
// The hashes pin bytes, not verdicts: a change that alters engine, protocol
// or fault behaviour on purpose regenerates them (the failure message
// prints the new value) and says so in CHANGES.md.  A refactor must leave
// them untouched.
#include <gtest/gtest.h>

#include <cstdio>

#include "vwire/chaos/campaign.hpp"

namespace vwire::chaos {
namespace {

constexpr u64 kGoldenSeed = 11;
constexpr u64 kTrials = 8;

std::string fnv1a_hex(std::string_view s) {
  u64 h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

void check_fixture(const char* fixture, const char* const (&golden)[kTrials]) {
  CampaignConfig cfg;
  cfg.fixture = fixture;
  cfg.seed = kGoldenSeed;
  cfg.trials = kTrials;
  cfg.minimize = false;
  Campaign campaign(cfg);
  u64 firings = 0;
  for (u64 i = 0; i < kTrials; ++i) {
    TrialResult a = campaign.run_trial(i);
    TrialResult b = campaign.run_trial(i);
    ASSERT_FALSE(a.telemetry.empty()) << fixture << " trial " << i;
    EXPECT_EQ(a.telemetry, b.telemetry)
        << fixture << " trial " << i << " must replay byte-for-byte";
    EXPECT_EQ(fnv1a_hex(a.telemetry), golden[i])
        << fixture << " trial " << i << " telemetry drifted from its golden";
    firings += a.firings;
  }
  // The goldens are only meaningful if the engines actually fired rules.
  EXPECT_GT(firings, 0u) << fixture;
}

TEST(ChaosGolden, Fig7TrialsReplayAndMatchGoldens) {
  const char* const golden[kTrials] = {
      "40e74e047e0ed823", "8a1e0e6a38bdb24e", "4d7a18589c0714aa",
      "7d0d89f361739cf2", "66e92df4e6219195", "d3cdfaabfac037a9",
      "2e9f98da93632d01", "978dac9f35504154"};
  check_fixture("fig7", golden);
}

TEST(ChaosGolden, UdpTrialsReplayAndMatchGoldens) {
  const char* const golden[kTrials] = {
      "66953cb43603ffd5", "f438d98ab1a94ac2", "0db4dda35ccfa73b",
      "710fd9418289feb9", "c6f873d132d8a468", "3a26f5faa8ce9945",
      "c4bce4a59e899817", "1ce62607251939b4"};
  check_fixture("udp", golden);
}

TEST(ChaosGolden, RetherTrialsReplayAndMatchGoldens) {
  const char* const golden[kTrials] = {
      "ac433072280e372f", "c99013b458839b67", "c680722589f9d8d3",
      "3a6feb325ed160a5", "bee2fd712269872d", "d35247033b457436",
      "8dd911687e7d4a0b", "cca2adeb61f3e163"};
  check_fixture("rether", golden);
}

}  // namespace
}  // namespace vwire::chaos
