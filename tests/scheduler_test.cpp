#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"

namespace rss::sim {
namespace {

using namespace rss::sim::literals;

TEST(SchedulerTest, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(3_ms, [&] { order.push_back(3); });
  s.schedule_at(1_ms, [&] { order.push_back(1); });
  s.schedule_at(2_ms, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 3_ms);
  EXPECT_EQ(s.events_executed(), 3u);
}

TEST(SchedulerTest, SameTimestampFiresInInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) s.schedule_at(5_ms, [&order, i] { order.push_back(i); });
  s.run();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SchedulerTest, RejectsPastAndNullEvents) {
  Scheduler s;
  s.schedule_at(10_ms, [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(5_ms, [] {}), std::invalid_argument);
  EXPECT_THROW(s.schedule_at(20_ms, Scheduler::Callback{}), std::invalid_argument);
}

TEST(SchedulerTest, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  const EventId id = s.schedule_at(1_ms, [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.events_executed(), 0u);
}

TEST(SchedulerTest, CancelIsIdempotentAndSafeOnFiredEvents) {
  Scheduler s;
  const EventId id = s.schedule_at(1_ms, [] {});
  s.run();
  EXPECT_FALSE(s.cancel(id));         // already fired
  EXPECT_FALSE(s.cancel(id));         // idempotent
  EXPECT_FALSE(s.cancel(EventId{}));  // default id is inert
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SchedulerTest, PendingTracksLiveEventsOnly) {
  Scheduler s;
  const EventId a = s.schedule_at(1_ms, [] {});
  s.schedule_at(2_ms, [] {});
  EXPECT_EQ(s.pending(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_TRUE(s.empty());
}

TEST(SchedulerTest, RunUntilAdvancesClockToHorizon) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(1_ms, [&] { ++fired; });
  s.schedule_at(10_ms, [&] { ++fired; });
  s.run_until(5_ms);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 5_ms);  // clock advances even with no event at 5ms
  s.run_until(10_ms);        // boundary event does fire
  EXPECT_EQ(fired, 2);
}

TEST(SchedulerTest, EventsScheduledDuringExecutionRun) {
  Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.schedule_in(1_ms, recurse);
  };
  s.schedule_at(0_ms, recurse);
  s.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), 4_ms);
}

TEST(SchedulerTest, StopHaltsRun) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(1_ms, [&] {
    ++fired;
    s.stop();
  });
  s.schedule_at(2_ms, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  s.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(SchedulerTest, NextEventTimeSkipsCancelled) {
  Scheduler s;
  const EventId a = s.schedule_at(1_ms, [] {});
  s.schedule_at(2_ms, [] {});
  s.cancel(a);
  EXPECT_EQ(s.next_event_time(), 2_ms);
  s.run();
  EXPECT_EQ(s.next_event_time(), Time::infinity());
}

TEST(SchedulerTest, CancelFromInsideCallback) {
  Scheduler s;
  bool late_fired = false;
  EventId late;
  late = s.schedule_at(2_ms, [&] { late_fired = true; });
  s.schedule_at(1_ms, [&] { EXPECT_TRUE(s.cancel(late)); });
  s.run();
  EXPECT_FALSE(late_fired);
}

TEST(SchedulerTest, StepSingleSteps) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(1_ms, [&] { ++fired; });
  s.schedule_at(2_ms, [&] { ++fired; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
  EXPECT_EQ(fired, 2);
}

TEST(SchedulerTest, StaleIdCannotCancelSlotReuser) {
  // Generation-checked ids: after cancel, the arena slot is recycled by the
  // next schedule — a stale handle to the first event must not be able to
  // cancel (or even observe) its successor.
  Scheduler s;
  bool fired = false;
  const EventId first = s.schedule_at(1_ms, [] {});
  EXPECT_TRUE(s.cancel(first));
  const EventId second = s.schedule_at(1_ms, [&fired] { fired = true; });
  EXPECT_EQ(s.arena_slots(), 1u);  // second reused first's slot
  EXPECT_NE(first, second);
  EXPECT_FALSE(s.cancel(first));  // stale: generation mismatch
  s.run();
  EXPECT_TRUE(fired);
}

TEST(SchedulerTest, ArenaStaysFlatUnderRescheduleStorm) {
  // The per-ACK RTO pattern must not grow memory: the arena's size is the
  // high-water mark of *simultaneously pending* events, not of scheduling
  // traffic. This is the pending-set assertion replacing the old live_ map
  // (which paid a hash-map node with a Time per event, never read).
  Scheduler s;
  EventId pending{};
  for (int i = 0; i < 10'000; ++i) {
    if (pending.valid()) s.cancel(pending);
    pending = s.schedule_at(Time::nanoseconds(i + 1), [] {});
  }
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_EQ(s.arena_slots(), 1u);
  s.run();
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.events_executed(), 1u);
}

// run_until(infinity) must drain the queue and return — "no events left"
// has to terminate the loop even though no event time exceeds infinity —
// and per the documented contract ("events at exactly `until` do fire") an
// event scheduled at the infinity sentinel itself still fires.
TEST(SchedulerTest, RunUntilInfinityDrainsAndReturns) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(1_ms, [&fired] { ++fired; });
  s.schedule_at(2_ms, [&fired] { ++fired; });
  s.schedule_at(Time::infinity(), [&fired] { ++fired; });
  s.run_until(Time::infinity());
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(s.now(), Time::infinity());
  EXPECT_TRUE(s.empty());
}

// schedule_train semantics: firing times, run_until splits mid-train,
// external cancellation of the remnant, and the pending-count contract (a
// train is ONE pending event).
TEST(SchedulerTest, TrainFiresCountTimesAtStride) {
  Scheduler s;
  std::vector<std::int64_t> fire_ns;
  const EventId id = s.schedule_train(
      1_ms, 250_us, 5, [&fire_ns, &s] { fire_ns.push_back(s.now().nanoseconds_count()); });
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(s.pending(), 1u);

  // Split the train across a run_until boundary.
  s.run_until(Time::microseconds(1'250));
  EXPECT_EQ(fire_ns.size(), 2u);
  EXPECT_EQ(s.pending(), 1u);  // remnant still counts as one pending event

  s.run();
  ASSERT_EQ(fire_ns.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(fire_ns[i], 1'000'000 + static_cast<std::int64_t>(i) * 250'000);
  }
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_FALSE(s.cancel(id));  // exhausted trains are no longer cancellable
}

TEST(SchedulerTest, CancelStopsTrainRemnant) {
  Scheduler s;
  int fires = 0;
  const EventId id = s.schedule_train(1_ms, 1_ms, 10, [&fires] { ++fires; });
  s.run_until(3_ms);
  EXPECT_EQ(fires, 3);
  EXPECT_TRUE(s.cancel(id));
  EXPECT_EQ(s.pending(), 0u);
  s.run();
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(s.now(), 3_ms);
}

TEST(SchedulerTest, CancelInsideTrainCallbackStopsFutureFirings) {
  Scheduler s;
  auto state = std::make_shared<std::pair<int, EventId>>();
  bool cancel_result = false;
  state->second = s.schedule_train(1_ms, 1_ms, 10, [state, &s, &cancel_result] {
    if (++state->first == 4) cancel_result = s.cancel(state->second);
  });
  s.run();
  EXPECT_EQ(state->first, 4);
  EXPECT_TRUE(cancel_result);  // the train still had six firings to cancel
  EXPECT_EQ(s.now(), 4_ms);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SchedulerTest, TrainValidation) {
  Scheduler s;
  // count == 0 is a no-op with an inert id.
  EXPECT_FALSE(s.schedule_train(1_ms, 1_ms, 0, [] {}).valid());
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_THROW(s.schedule_train(1_ms, Time::nanoseconds(-1), 3, [] {}),
               std::invalid_argument);
  EXPECT_THROW(s.schedule_train(Time::infinity(), 1_ms, 2, [] {}), std::invalid_argument);
  EXPECT_THROW(s.schedule_train(1_ms, Time::infinity(), 2, [] {}), std::invalid_argument);
  // A finite stride whose span would overflow the int64 nanosecond clock
  // (stride ~4.0e18 ns is representable; the 4th firing at ~1.2e19 is not).
  EXPECT_THROW(s.schedule_train(1_ms, Time::seconds(4'000'000'000), 4, [] {}),
               std::invalid_argument);
  EXPECT_EQ(s.pending(), 0u);
  // A single firing at infinity is still allowed (matches schedule_at).
  EXPECT_TRUE(s.schedule_train(Time::infinity(), Time::zero(), 1, [] {}).valid());
}

TEST(SimulationTest, TrainForwardsToScheduler) {
  Simulation sim;
  int fires = 0;
  sim.train(5_ms, 5_ms, 3, [&fires] { ++fires; });
  sim.run();
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(sim.now(), 15_ms);
}

TEST(SimulationTest, EveryRepeatsUntilFalse) {
  Simulation sim;
  std::vector<Time> ticks;
  sim.every(10_ms, [&](Time now) {
    ticks.push_back(now);
    return ticks.size() < 3;
  });
  sim.run();
  ASSERT_EQ(ticks.size(), 3u);
  EXPECT_EQ(ticks[0], 10_ms);
  EXPECT_EQ(ticks[1], 20_ms);
  EXPECT_EQ(ticks[2], 30_ms);
}

TEST(SimulationTest, RunForIsRelative) {
  Simulation sim;
  sim.run_until(5_ms);
  sim.run_for(10_ms);
  EXPECT_EQ(sim.now(), 15_ms);
}

}  // namespace
}  // namespace rss::sim
