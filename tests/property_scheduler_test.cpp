// Property suite for the event core: randomized schedules must execute in
// exact (time, insertion) order, and random cancellations must never fire.
// Also covers the allocation-free machinery underneath: slot-arena reuse
// under reschedule storms, and schedule_train equivalence with chained
// one-shot scheduling.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"

namespace rss::sim {
namespace {

struct SchedulePlan {
  std::uint64_t seed;
  std::size_t events;
  std::int64_t horizon_ns;
};

class RandomScheduleTest : public ::testing::TestWithParam<SchedulePlan> {};

TEST_P(RandomScheduleTest, SchedulerExecutesInTimeThenInsertionOrder) {
  const auto plan = GetParam();
  Rng rng{plan.seed};
  Scheduler s;

  struct Expected {
    Time at;
    std::size_t insertion;
  };
  std::vector<Expected> expected;
  std::vector<std::size_t> observed;
  expected.reserve(plan.events);

  for (std::size_t i = 0; i < plan.events; ++i) {
    const Time at = Time::nanoseconds(static_cast<std::int64_t>(
        rng.next_in(0, static_cast<std::uint64_t>(plan.horizon_ns))));
    expected.push_back({at, i});
    s.schedule_at(at, [&observed, i] { observed.push_back(i); });
  }
  s.run();

  std::stable_sort(expected.begin(), expected.end(),
                   [](const Expected& a, const Expected& b) { return a.at < b.at; });
  ASSERT_EQ(observed.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(observed[i], expected[i].insertion) << "position " << i;
  }
}

TEST_P(RandomScheduleTest, RandomCancellationsNeverFireAndOthersAlwaysDo) {
  const auto plan = GetParam();
  Rng rng{plan.seed ^ 0xABCDEF};
  Scheduler s;
  std::vector<EventId> ids(plan.events);
  std::vector<bool> fired(plan.events, false);
  for (std::size_t i = 0; i < plan.events; ++i) {
    const Time at = Time::nanoseconds(static_cast<std::int64_t>(
        rng.next_in(1, static_cast<std::uint64_t>(plan.horizon_ns))));
    ids[i] = s.schedule_at(at, [&fired, i] { fired[i] = true; });
  }
  std::vector<bool> cancelled(plan.events, false);
  for (std::size_t i = 0; i < plan.events; ++i) {
    if (rng.next_bool(0.4)) {
      cancelled[i] = true;
      EXPECT_TRUE(s.cancel(ids[i]));
    }
  }
  s.run();
  for (std::size_t i = 0; i < plan.events; ++i) {
    EXPECT_EQ(fired[i], !cancelled[i]) << "event " << i;
  }
}

// The per-ACK RTO pattern: cancel + immediately reschedule, thousands of
// times. The slot arena must recycle — its size is bounded by
// *simultaneously pending* events, not by scheduling traffic.
TEST_P(RandomScheduleTest, RescheduleStormRecyclesArenaSlots) {
  const auto plan = GetParam();
  Rng rng{plan.seed ^ 0x7777};
  Scheduler s;
  std::uint64_t fired = 0;
  EventId timer{};
  std::size_t peak_pending = 0;
  for (std::size_t i = 0; i < plan.events; ++i) {
    // False when a run_until below already fired the timer — both paths
    // (cancel-then-rearm, fire-then-rearm) occur in this storm.
    if (timer.valid()) (void)s.cancel(timer);
    const Time at = s.now() + Time::nanoseconds(static_cast<std::int64_t>(
                                  rng.next_in(1, 1'000'000)));
    timer = s.schedule_at(at, [&fired] { ++fired; });
    // A little background traffic so the arena holds more than one slot.
    if (rng.next_bool(0.1)) {
      s.schedule_at(at, [&fired] { ++fired; });
    }
    peak_pending = std::max(peak_pending, s.pending());
    if (rng.next_bool(0.3)) s.run_until(at);
  }
  s.run();
  // The storm scheduled ~1.1 * events callbacks; the arena must stay at
  // the high-water mark of pending events, orders of magnitude smaller.
  EXPECT_LE(s.arena_slots(), peak_pending);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.events_executed(), fired);
}

// schedule_train must be observationally identical to the chained
// self-rescheduling pattern it replaces: same firing times, same now() at
// each firing, same interleaving with independently scheduled events.
TEST_P(RandomScheduleTest, TrainMatchesChainedScheduling) {
  const auto plan = GetParam();
  const auto stride = Time::nanoseconds(std::max<std::int64_t>(plan.horizon_ns / 64, 1));
  const std::uint64_t count = 16;

  struct Firing {
    std::int64_t at;
    int label;
  };
  const auto run_one = [&](bool use_train) {
    std::vector<Firing> log;
    Scheduler s;
    Rng rng{plan.seed ^ 0x1234};
    // Background noise events across the train's span.
    for (std::size_t i = 0; i < plan.events / 4 + 4; ++i) {
      const Time at = Time::nanoseconds(static_cast<std::int64_t>(rng.next_in(
          0, static_cast<std::uint64_t>(stride.nanoseconds_count()) * (count + 1))));
      s.schedule_at(at, [&log, &s] { log.push_back({s.now().nanoseconds_count(), 0}); });
    }
    if (use_train) {
      s.schedule_train(stride, stride, count,
                       [&log, &s] { log.push_back({s.now().nanoseconds_count(), 1}); });
    } else {
      struct Chain {
        Scheduler* s;
        std::vector<Firing>* log;
        Time stride;
        std::uint64_t left;
        void operator()() const {
          log->push_back({s->now().nanoseconds_count(), 1});
          if (left > 1) s->schedule_in(stride, Chain{s, log, stride, left - 1});
        }
      };
      s.schedule_at(stride, Chain{&s, &log, stride, count});
    }
    s.run();
    return log;
  };

  const auto train = run_one(true);
  const auto chain = run_one(false);
  ASSERT_EQ(train.size(), chain.size());
  for (std::size_t i = 0; i < train.size(); ++i) {
    EXPECT_EQ(train[i].at, chain[i].at) << "firing " << i;
    EXPECT_EQ(train[i].label, chain[i].label) << "firing " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Plans, RandomScheduleTest,
    ::testing::Values(SchedulePlan{1, 100, 1'000},          // dense ties
                      SchedulePlan{2, 1'000, 1'000'000},    // typical
                      SchedulePlan{3, 5'000, 100},          // extreme tie pressure
                      SchedulePlan{4, 2'000, 1'000'000'000},// sparse
                      SchedulePlan{5, 500, 50'000}),
    [](const ::testing::TestParamInfo<SchedulePlan>& info) {
      return "seed" + std::to_string(info.param.seed) + "_n" +
             std::to_string(info.param.events);
    });

}  // namespace
}  // namespace rss::sim
