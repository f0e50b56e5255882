// sim::Timer: a restartable deadline with one event in the scheduler. The
// unit tests pin each move (later, earlier, clear, re-set); the property
// test drives random set/clear storms against a timer that cancels and
// re-arms on every set, on a second scheduler, and demands the same fire
// trace.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer.hpp"

namespace rss::sim {
namespace {

using namespace rss::sim::literals;

struct Probe {
  Scheduler s;
  std::vector<Time> fired;
  int restarts{0};  ///< expiries that restart the timer for 4 ms
  Timer timer{s, [](void* self) { static_cast<Probe*>(self)->expire(); }, this};

  void expire() {
    fired.push_back(s.now());
    if (restarts > 0) {
      --restarts;
      timer.set_in(4_ms);
    }
  }
};

TEST(TimerTest, FiresOnceAtItsDeadline) {
  Probe p;
  EXPECT_FALSE(p.timer.pending());
  p.timer.set_in(10_ms);
  EXPECT_TRUE(p.timer.pending());
  p.s.run();
  EXPECT_EQ(p.fired, std::vector<Time>{10_ms});
  EXPECT_FALSE(p.timer.pending());
}

TEST(TimerTest, MoveLaterKeepsOneEventAndFiresAtTheNewDeadline) {
  Probe p;
  p.timer.set_in(10_ms);
  for (int i = 1; i <= 5; ++i) {
    p.s.schedule_at(Time::milliseconds(i), [&p] { p.timer.set_in(10_ms); });
  }
  p.s.run_until(5_ms);
  EXPECT_EQ(p.s.pending(), 1u) << "moving later must not add events";
  p.s.run();
  // The first armed event fires at 10 ms and re-arms for 15 ms.
  EXPECT_EQ(p.fired, std::vector<Time>{15_ms});
  EXPECT_EQ(p.s.events_executed(), 5u + 2u);
}

TEST(TimerTest, MoveEarlierFiresAtTheEarlierDeadlineOnly) {
  Probe p;
  p.timer.set_in(10_ms);
  p.s.schedule_at(1_ms, [&p] { p.timer.set_in(2_ms); });
  p.s.run();
  EXPECT_EQ(p.fired, std::vector<Time>{3_ms});
  // The 10 ms event was cancelled, not left to fire as a no-op.
  EXPECT_EQ(p.s.now(), 3_ms);
}

TEST(TimerTest, ClearStopsExpiryAndLeavesOneNoOpEvent) {
  Probe p;
  p.timer.set_in(10_ms);
  p.s.schedule_at(1_ms, [&p] { p.timer.clear(); });
  p.s.run_until(2_ms);
  EXPECT_FALSE(p.timer.pending());
  EXPECT_EQ(p.s.pending(), 1u) << "clear() only drops the deadline";
  p.s.run();
  EXPECT_TRUE(p.fired.empty());
  EXPECT_EQ(p.s.now(), 10_ms) << "run() runs on to the no-op";
}

TEST(TimerTest, SetAfterClearFiresAtTheNewDeadline) {
  Probe later;
  later.timer.set_in(10_ms);
  later.s.schedule_at(1_ms, [&later] { later.timer.clear(); });
  later.s.schedule_at(2_ms, [&later] { later.timer.set_in(20_ms); });
  later.s.run();
  EXPECT_EQ(later.fired, std::vector<Time>{22_ms});

  Probe earlier;
  earlier.timer.set_in(10_ms);
  earlier.s.schedule_at(1_ms, [&earlier] { earlier.timer.clear(); });
  earlier.s.schedule_at(2_ms, [&earlier] { earlier.timer.set_in(1_ms); });
  earlier.s.run();
  EXPECT_EQ(earlier.fired, std::vector<Time>{3_ms});
}

TEST(TimerTest, ExpiryMayRestartTheTimer) {
  Probe p;
  p.restarts = 2;
  p.timer.set_in(4_ms);
  p.s.run();
  EXPECT_EQ(p.fired, (std::vector<Time>{4_ms, 8_ms, 12_ms}));
}

// A deadline moved to the same instant by a later set_in pops where the
// later-drawn key does: after an event drawn in between for that instant.
// Comparing only the fire time would expire it at the first key's place.
TEST(TimerTest, SameInstantLaterKeyExpiresAfterEventsDrawnBetween) {
  Scheduler s;
  std::vector<std::string> order;
  Timer timer{
      s, [](void* o) { static_cast<std::vector<std::string>*>(o)->emplace_back("timer"); },
      &order};
  timer.set_in(10_ms);  // key (10 ms, born 0)
  s.schedule_at(10_ms, [&order] { order.emplace_back("event"); });  // born 0, later rank
  s.schedule_at(5_ms, [&timer] { timer.set_in(5_ms); });            // (10 ms, born 5 ms)
  s.run();
  EXPECT_EQ(order, (std::vector<std::string>{"event", "timer"}));
}

// --- differential property: Timer vs cancel-and-re-arm ---------------------

/// One action of the storm, applied at `at` to both models.
struct Action {
  enum Kind { kSet, kClear, kUnrelated } kind;
  Time at;
  std::size_t timer;
  Time delay;
};

using Trace = std::vector<std::pair<Time, std::size_t>>;

/// Delays on a coarse grid so that equal fire times — the tie-break
/// cases — are common.
Time grid_delay(Rng& rng) {
  return Time::milliseconds(static_cast<std::int64_t>(rng.next_in(0, 20)));
}

std::vector<Action> storm_plan(std::uint64_t seed, std::size_t timers, std::size_t actions) {
  Rng rng{seed};
  std::vector<Action> plan;
  plan.reserve(actions);
  for (std::size_t i = 0; i < actions; ++i) {
    const std::uint64_t roll = rng.next_in(0, 9);
    const Action::Kind kind = roll < 6 ? Action::kSet : roll < 8 ? Action::kClear
                                                                 : Action::kUnrelated;
    const Time at = Time::microseconds(static_cast<std::int64_t>(rng.next_in(0, 50)) * 500);
    plan.push_back({kind, at, static_cast<std::size_t>(rng.next_in(0, timers - 1)),
                    grid_delay(rng)});
  }
  return plan;
}

/// `n` timers of one model: sim::Timer, or the reference — what TcpSender's
/// RTO did before sim::Timer — that cancels the pending event and schedules
/// a new one on every set. Expiries go to `trace` as their index; odd
/// timers restart themselves on expiry, as an RTO does, up to 5 times.
class Bank {
 public:
  Bank(Scheduler& s, std::size_t n, bool lazy)
      : s_{s}, lazy_{lazy}, ids_(n), restarts_(n), owners_(n) {
    if (!lazy_) return;
    for (std::size_t i = 0; i < n; ++i) {
      owners_[i] = {this, i};
      timers_.push_back(std::make_unique<Timer>(
          s_,
          [](void* owner) {
            const auto* o = static_cast<Owner*>(owner);
            o->bank->expire(o->index);
          },
          &owners_[i]));
    }
  }

  void set_in(std::size_t i, Time delay) {
    if (lazy_) {
      timers_[i]->set_in(delay);
      return;
    }
    s_.cancel(ids_[i]);
    ids_[i] = s_.schedule_in(delay, [this, i] {
      ids_[i] = EventId{};
      expire(i);
    });
  }

  void clear(std::size_t i) {
    if (lazy_) {
      timers_[i]->clear();
      return;
    }
    s_.cancel(ids_[i]);
    ids_[i] = EventId{};
  }

  Trace trace;

 private:
  void expire(std::size_t i) {
    trace.emplace_back(s_.now(), i);
    if (i % 2 == 1 && restarts_[i]++ < 5) set_in(i, 3_ms);
  }

  /// What timer i's expiry is handed: its bank and index.
  struct Owner {
    Bank* bank;
    std::size_t index;
  };

  Scheduler& s_;
  bool lazy_;
  std::vector<EventId> ids_;
  std::vector<int> restarts_;
  std::vector<Owner> owners_;  ///< sized once: the timers hold addresses into it
  std::vector<std::unique_ptr<Timer>> timers_;
};

/// Runs `plan` against one model and returns the (time, id) trace: timer
/// expiries as their index, unrelated events as 1000 + their action index.
Trace run_storm(const std::vector<Action>& plan, std::size_t timers, bool lazy, Scheduler& s) {
  Bank bank{s, timers, lazy};
  for (std::size_t k = 0; k < plan.size(); ++k) {
    const Action& a = plan[k];
    s.schedule_at(a.at, [&bank, &s, &a, k] {
      switch (a.kind) {
        case Action::kSet:
          bank.set_in(a.timer, a.delay);
          break;
        case Action::kClear:
          bank.clear(a.timer);
          break;
        case Action::kUnrelated:
          s.schedule_in(a.delay, [&bank, &s, k] { bank.trace.emplace_back(s.now(), 1000 + k); });
          break;
      }
    });
  }
  s.run();
  return bank.trace;
}

class TimerStormTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimerStormTest, FireTraceMatchesCancelAndRearm) {
  constexpr std::size_t kTimers = 8;
  const std::vector<Action> plan = storm_plan(GetParam(), kTimers, 600);

  Scheduler lazy;
  const Trace got = run_storm(plan, kTimers, /*lazy=*/true, lazy);
  Scheduler reference;
  const Trace want = run_storm(plan, kTimers, /*lazy=*/false, reference);

  ASSERT_FALSE(want.empty());
  EXPECT_EQ(got, want);
  // Same actions, same unrelated events; a Timer never holds more events
  // than the one the reference keeps pending.
  EXPECT_LE(lazy.arena_slots(), reference.arena_slots());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimerStormTest, ::testing::Values(1u, 2u, 3u, 17u, 99u, 2024u));

}  // namespace
}  // namespace rss::sim
