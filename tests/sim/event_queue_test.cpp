#include "vwire/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <numeric>
#include <utility>

#include "vwire/util/rng.hpp"

namespace vwire::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule({30}, [&] { order.push_back(3); });
  q.schedule({10}, [&] { order.push_back(1); });
  q.schedule({20}, [&] { order.push_back(2); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.schedule({100}, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop_and_run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelledEventNeverRuns) {
  EventQueue q;
  bool ran = false;
  EventId id = q.schedule({10}, [&] { ran = true; });
  q.schedule({20}, [] {});
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop_and_run();
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelAfterFireIsHarmless) {
  EventQueue q;
  EventId id = q.schedule({10}, [] {});
  q.pop_and_run();
  q.cancel(id);  // must not corrupt the live count
  EXPECT_TRUE(q.empty());
  bool ran = false;
  q.schedule({20}, [&] { ran = true; });
  EXPECT_EQ(q.size(), 1u);
  q.pop_and_run();
  EXPECT_TRUE(ran);
}

TEST(EventQueue, DoubleCancelIsHarmless) {
  EventQueue q;
  EventId id = q.schedule({10}, [] {});
  q.cancel(id);
  q.cancel(id);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ReportsNextTime) {
  EventQueue q;
  q.schedule({50}, [] {});
  EventId early = q.schedule({10}, [] {});
  EXPECT_EQ(q.next_time().ns, 10);
  q.cancel(early);
  EXPECT_EQ(q.next_time().ns, 50);
}

TEST(EventQueue, EventsScheduledDuringRunAreSeen) {
  EventQueue q;
  std::vector<int> order;
  q.schedule({10}, [&] {
    order.push_back(1);
    q.schedule({5}, [&] { order.push_back(2); });  // earlier, runs next
  });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, PopReturnsScheduledTime) {
  EventQueue q;
  q.schedule({123}, [] {});
  EXPECT_EQ(q.pop_and_run().ns, 123);
}

// Randomized differential test against a reference model: a vector of
// pending events kept sorted by (at, seq).  Schedules, cancels (of live,
// fired, cancelled and reused-slot ids alike) and pops are interleaved, and
// some callbacks schedule or cancel further events while they run.
TEST(EventQueue, MatchesSortedReferenceModel) {
  struct Ref {
    TimePoint at;
    u64 seq;
    int tag;
  };
  EventQueue q;
  std::vector<Ref> model;                 // pending, sorted by (at, seq)
  std::vector<std::pair<EventId, int>> ids;  // every id ever issued, with tag
  std::vector<int> ran;
  u64 seq = 0;
  int next_tag = 0;
  Rng rng(0x5eed);

  std::function<void(TimePoint)> add = [&](TimePoint at) {
    const int tag = next_tag++;
    const bool nested = rng.chance(0.1);
    EventId id = q.schedule(at, [&, tag, nested, at] {
      ran.push_back(tag);
      if (!nested) return;
      // Re-enter the queue from inside a callback.
      add(at + Duration{rng.range(0, 50)});
      if (!ids.empty()) {
        const auto& victim = ids[rng.below(ids.size())];
        q.cancel(victim.first);
        std::erase_if(model,
                      [&](const Ref& r) { return r.tag == victim.second; });
      }
    });
    EXPECT_NE(id, kNoEvent);
    ids.emplace_back(id, tag);
    Ref r{at, seq++, tag};
    model.insert(std::upper_bound(model.begin(), model.end(), r,
                                  [](const Ref& a, const Ref& b) {
                                    if (a.at != b.at) return a.at < b.at;
                                    return a.seq < b.seq;
                                  }),
                 r);
  };

  TimePoint now{0};
  for (int op = 0; op < 10000; ++op) {
    const u64 pick = rng.below(10);
    if (pick < 5) {
      add(now + Duration{rng.range(0, 200)});
    } else if (pick < 7 && !ids.empty()) {
      const auto& victim = ids[rng.below(ids.size())];
      q.cancel(victim.first);
      std::erase_if(model,
                    [&](const Ref& r) { return r.tag == victim.second; });
    } else if (!model.empty()) {
      ASSERT_FALSE(q.empty());
      ASSERT_EQ(q.next_time(), model.front().at);
      const int expect = model.front().tag;
      model.erase(model.begin());
      ran.clear();
      now = q.pop_and_run();
      ASSERT_FALSE(ran.empty());
      ASSERT_EQ(ran.front(), expect);
    }
    ASSERT_EQ(q.size(), model.size());
    ASSERT_EQ(q.empty(), model.empty());
  }
  while (!model.empty()) {
    const int expect = model.front().tag;
    model.erase(model.begin());
    ran.clear();
    q.pop_and_run();
    ASSERT_EQ(ran.front(), expect);
    ASSERT_EQ(q.size(), model.size());
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StaleIdDoesNotCancelTheSlotsNewEvent) {
  EventQueue q;
  EventId cancelled = q.schedule({10}, [] {});
  q.cancel(cancelled);
  bool ran = false;
  EventId reused = q.schedule({20}, [&] { ran = true; });
  // Same slot, newer generation.
  EXPECT_EQ(reused & 0xffffffffu, cancelled & 0xffffffffu);
  EXPECT_NE(reused, cancelled);
  q.cancel(cancelled);
  EXPECT_EQ(q.size(), 1u);
  q.pop_and_run();
  EXPECT_TRUE(ran);

  // The same holds for the id of an event that already fired.
  EventId fired = reused;
  bool ran_again = false;
  EventId next = q.schedule({30}, [&] { ran_again = true; });
  EXPECT_EQ(next & 0xffffffffu, fired & 0xffffffffu);
  q.cancel(fired);
  ASSERT_EQ(q.size(), 1u);
  q.pop_and_run();
  EXPECT_TRUE(ran_again);
}

TEST(EventQueue, CallbackCancelsAPendingEvent) {
  EventQueue q;
  std::vector<int> order;
  EventId later = kNoEvent;
  q.schedule({10}, [&] {
    order.push_back(1);
    q.cancel(later);
  });
  later = q.schedule({20}, [&] { order.push_back(2); });
  q.schedule({30}, [&] { order.push_back(3); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, CallbackGrowsTheSlabWhileRunning) {
  EventQueue q;
  constexpr int kChildren = 5000;
  std::vector<int> order;
  std::vector<int> payload(16);
  std::iota(payload.begin(), payload.end(), 1);
  int sum_after = 0;
  q.schedule({1}, [&q, &order, &sum_after, payload] {
    for (int i = 0; i < kChildren; ++i) {
      q.schedule({100 + kChildren - i}, [&order, i] { order.push_back(i); });
    }
    // The running capture must survive the slab reallocating under it.
    sum_after = std::accumulate(payload.begin(), payload.end(), 0);
  });
  q.pop_and_run();
  EXPECT_EQ(sum_after, 136);
  EXPECT_EQ(q.size(), static_cast<std::size_t>(kChildren));
  while (!q.empty()) q.pop_and_run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kChildren));
  for (int i = 0; i < kChildren; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], kChildren - 1 - i);
  }
}

TEST(EventQueue, AcceptsMoveOnlyCaptures) {
  EventQueue q;
  int seen = 0;
  auto owned = std::make_unique<int>(42);
  q.schedule({5}, [&seen, p = std::move(owned)] { seen = *p; });
  q.pop_and_run();
  EXPECT_EQ(seen, 42);
}

namespace {

/// Counts destructions of the one live (not moved-from) copy.
struct DtorCounter {
  explicit DtorCounter(int* n) : count(n) {}
  DtorCounter(DtorCounter&& o) noexcept
      : count(std::exchange(o.count, nullptr)) {}
  DtorCounter(const DtorCounter&) = delete;
  ~DtorCounter() {
    if (count != nullptr) ++*count;
  }
  int* count;
};

/// A capture too large for EventFn's inline buffer.
auto oversize_fn(int* destroyed, int* runs) {
  std::array<u8, 2 * EventFn::kInlineSize> pad{};
  pad[0] = 1;
  return [pad, guard = DtorCounter(destroyed), runs] { *runs += pad[0]; };
}

}  // namespace

TEST(EventQueue, OversizeCaptureIsFreedOnRunCancelAndDestruction) {
  using Oversize = decltype(oversize_fn(nullptr, nullptr));
  static_assert(!EventFn::stored_inline<Oversize>());
  int destroyed = 0;
  int runs = 0;
  {
    EventQueue q;
    q.schedule({1}, oversize_fn(&destroyed, &runs));
    EXPECT_EQ(destroyed, 0);
    q.pop_and_run();
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(destroyed, 1);  // freed once it ran

    EventId id = q.schedule({2}, oversize_fn(&destroyed, &runs));
    q.cancel(id);
    EXPECT_EQ(destroyed, 2);  // freed on cancel, before its key is skimmed

    q.schedule({3}, oversize_fn(&destroyed, &runs));
    EXPECT_EQ(destroyed, 2);
  }
  EXPECT_EQ(destroyed, 3);  // freed with the queue, never run
  EXPECT_EQ(runs, 1);
}

TEST(EventFn, InlineCaptureIsMovedNotCopied) {
  int destroyed = 0;
  int runs = 0;
  {
    EventFn fn([guard = DtorCounter(&destroyed), &runs] { ++runs; });
    EventFn moved = std::move(fn);
    EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
    moved();
    moved();
    EXPECT_EQ(runs, 2);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

}  // namespace
}  // namespace vwire::sim
