// FiringRecord ring-buffer semantics (DESIGN.md §7).
#include "vwire/obs/provenance.hpp"

#include <gtest/gtest.h>

#include "vwire/core/control/controller.hpp"

namespace vwire::obs {
namespace {

FiringRecord rec(i64 at_ns, u16 rule) {
  FiringRecord r;
  r.at = {at_ns};
  r.rule = rule;
  return r;
}

TEST(ProvenanceRing, CapacityZeroDisablesRecording) {
  ProvenanceRing ring(0);
  EXPECT_FALSE(ring.enabled());
  ring.append(rec(1, 0));
  EXPECT_EQ(ring.total(), 0u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_TRUE(ring.collect().empty());
}

TEST(ProvenanceRing, FillsThenOverwritesOldest) {
  ProvenanceRing ring(3);
  EXPECT_TRUE(ring.enabled());
  for (i64 i = 1; i <= 5; ++i) ring.append(rec(i, static_cast<u16>(i)));
  EXPECT_EQ(ring.total(), 5u);
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.dropped(), 2u);
  auto out = ring.collect();
  ASSERT_EQ(out.size(), 3u);
  // Oldest → newest, survivors are the last three appended.
  EXPECT_EQ(out[0].at.ns, 3);
  EXPECT_EQ(out[1].at.ns, 4);
  EXPECT_EQ(out[2].at.ns, 5);
}

TEST(ProvenanceRing, PartialFillCollectsInAppendOrder) {
  ProvenanceRing ring(8);
  ring.append(rec(10, 1));
  ring.append(rec(20, 2));
  EXPECT_EQ(ring.dropped(), 0u);
  auto out = ring.collect();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].at.ns, 10);
  EXPECT_EQ(out[1].rule, 2);
}

TEST(ProvenanceRing, ClearKeepsCapacityResetChangesIt) {
  ProvenanceRing ring(2);
  ring.append(rec(1, 0));
  ring.append(rec(2, 0));
  ring.append(rec(3, 0));
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total(), 0u);
  EXPECT_EQ(ring.capacity(), 2u);
  ring.reset(5);
  EXPECT_EQ(ring.capacity(), 5u);
  ring.reset(0);
  EXPECT_FALSE(ring.enabled());
}

TEST(ProvenanceRing, EvictionAccountingHoldsAcrossManyLaps) {
  ProvenanceRing ring(4);
  for (i64 i = 1; i <= 14; ++i) ring.append(rec(i, 1));  // 3.5 laps
  EXPECT_EQ(ring.total(), 14u);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 10u);
  EXPECT_EQ(ring.total(), ring.size() + ring.dropped());
  auto out = ring.collect();
  ASSERT_EQ(out.size(), 4u);
  // Survivors are exactly the newest capacity-many, oldest → newest, even
  // when the head has wrapped mid-lap.
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].at.ns, static_cast<i64>(11 + i));
  }
}

TEST(ProvenanceRing, ExplainSeesTheNewestFiringsOfAHotRule) {
  // A rule that fires more times than the ring holds: explain(rule) must
  // surface the *newest* firings (the oldest were evicted), still in
  // oldest → newest order, with other rules filtered out.
  ProvenanceRing ring(3);
  ring.append(rec(1, 7));
  ring.append(rec(2, 9));  // competing rule, evicted by the rule-7 storm
  for (i64 t = 3; t <= 7; ++t) ring.append(rec(t, 7));

  control::ScenarioResult result;
  result.firings = ring.collect();
  result.firings_dropped = ring.dropped();
  EXPECT_EQ(result.firings_dropped, 4u);

  const auto sevens = result.explain(7);
  ASSERT_EQ(sevens.size(), 3u);
  EXPECT_EQ(sevens.front().at.ns, 5);
  EXPECT_EQ(sevens.back().at.ns, 7);  // newest firing is last
  EXPECT_TRUE(result.explain(9).empty());  // evicted entirely
  EXPECT_TRUE(result.explain(42).empty());  // never fired
}

TEST(ProvenanceRing, UnclaimedRingReportsCapacityAndHoldsNothing) {
  ProvenanceRing ring(4096);
  EXPECT_TRUE(ring.enabled());
  EXPECT_EQ(ring.capacity(), 4096u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_TRUE(ring.collect().empty());
  ring.clear();
  ring.reset(4096);
  EXPECT_EQ(ring.capacity(), 4096u);
  EXPECT_TRUE(ring.collect().empty());
  EXPECT_EQ(ring.constructed(), 0u);
  ring.append(rec(1, 1));  // the first firing builds one slot, not 4096
  EXPECT_EQ(ring.constructed(), 1u);
}

TEST(ProvenanceRing, FirstLapFillsThenWrapsExactlyAtCapacity) {
  constexpr std::size_t kCap = 5;
  ProvenanceRing ring(kCap);
  for (i64 i = 1; i <= static_cast<i64>(kCap); ++i) {
    ring.append(rec(i, static_cast<u16>(i)));
    EXPECT_EQ(ring.size(), static_cast<std::size_t>(i));
    EXPECT_EQ(ring.constructed(), static_cast<std::size_t>(i));
    EXPECT_EQ(ring.dropped(), 0u);
  }
  auto full = ring.collect();
  ASSERT_EQ(full.size(), kCap);
  for (std::size_t i = 0; i < kCap; ++i) {
    EXPECT_EQ(full[i].at.ns, static_cast<i64>(i + 1));
  }
  // Claim N+1 overwrites slot 0, the oldest.
  ring.append(rec(6, 6));
  EXPECT_EQ(ring.size(), kCap);
  EXPECT_EQ(ring.constructed(), kCap);
  EXPECT_EQ(ring.dropped(), 1u);
  auto wrapped = ring.collect();
  ASSERT_EQ(wrapped.size(), kCap);
  for (std::size_t i = 0; i < kCap; ++i) {
    EXPECT_EQ(wrapped[i].at.ns, static_cast<i64>(i + 2));
  }
}

TEST(ProvenanceRing, ClearMidFirstLapThenRefillKeepsOrder) {
  ProvenanceRing ring(6);
  for (i64 i = 1; i <= 3; ++i) ring.append(rec(i, 1));  // half a lap
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.capacity(), 6u);
  EXPECT_EQ(ring.constructed(), 3u);  // clear() keeps the reservation
  EXPECT_TRUE(ring.collect().empty());
  // Refill past the old frontier (slots 0-2 reused, 3-5 new) and wrap.
  for (i64 i = 10; i <= 17; ++i) ring.append(rec(i, 2));
  EXPECT_EQ(ring.total(), 8u);
  EXPECT_EQ(ring.dropped(), 2u);
  auto out = ring.collect();
  ASSERT_EQ(out.size(), 6u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].at.ns, static_cast<i64>(12 + i));
    EXPECT_EQ(out[i].rule, 2);
  }
}

TEST(ProvenanceRing, ResetAfterPartialFillChangesCapacity) {
  ProvenanceRing ring(8);
  for (i64 i = 1; i <= 3; ++i) ring.append(rec(i, 1));
  ring.reset(2);
  EXPECT_TRUE(ring.enabled());
  EXPECT_EQ(ring.capacity(), 2u);
  EXPECT_EQ(ring.constructed(), 0u);  // a new capacity releases the slots
  EXPECT_EQ(ring.total(), 0u);
  EXPECT_TRUE(ring.collect().empty());
  for (i64 i = 1; i <= 3; ++i) ring.append(rec(i * 10, 3));
  auto out = ring.collect();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].at.ns, 20);
  EXPECT_EQ(out[1].at.ns, 30);
  EXPECT_EQ(ring.dropped(), 1u);
  // Same capacity: behaves like clear().
  ring.reset(2);
  EXPECT_EQ(ring.size(), 0u);
  ring.append(rec(99, 4));
  ASSERT_EQ(ring.collect().size(), 1u);
  EXPECT_EQ(ring.collect()[0].at.ns, 99);
}

TEST(ProvenanceRing, SingleSlotRingKeepsTheNewest) {
  ProvenanceRing ring(1);
  EXPECT_TRUE(ring.collect().empty());
  ring.append(rec(1, 1));
  ASSERT_EQ(ring.collect().size(), 1u);
  EXPECT_EQ(ring.collect()[0].at.ns, 1);
  for (i64 i = 2; i <= 4; ++i) ring.append(rec(i, 1));
  EXPECT_EQ(ring.total(), 4u);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.dropped(), 3u);
  auto out = ring.collect();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].at.ns, 4);
}

TEST(FiringRecord, SnapshotArraysAreBounded) {
  FiringRecord r;
  EXPECT_EQ(r.n_counters, 0);
  EXPECT_EQ(r.n_terms, 0);
  for (std::size_t i = 0; i < FiringRecord::kMaxCounters; ++i) {
    r.counters[r.n_counters++] = {static_cast<u16>(i), static_cast<i64>(i)};
  }
  EXPECT_EQ(r.n_counters, FiringRecord::kMaxCounters);
  EXPECT_EQ(r.counters[0].id, 0);
  EXPECT_EQ(r.counters[FiringRecord::kMaxCounters - 1].value,
            static_cast<i64>(FiringRecord::kMaxCounters - 1));
}

}  // namespace
}  // namespace vwire::obs
