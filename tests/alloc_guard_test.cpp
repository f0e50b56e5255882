// Zero-allocation invariant for the event core, enforced at runtime.
//
// PR 3's headline claim is that the steady-state scheduler hot path —
// schedule / cancel / reschedule (the per-ACK RTO pattern) and the
// schedule_train pop loop (packet serialization bursts) — performs no heap
// allocation. scripts/lint_invariants.py bans the allocating *constructs*
// statically; this suite counts actual operator-new calls via the
// sim/alloc_guard.hpp hook and asserts the count is exactly zero once the
// arena, free list, and queue storage are warm.
//
// Warm-up matters: the first iterations legitimately allocate (slot arena
// growth, heap vector capacity). Steady state starts when a loop's
// working set stops growing — which the arena-flatness tests already pin —
// so each test runs one warm-up round, then measures an identical round.

#define RSS_ALLOC_GUARD_IMPLEMENT
#include "sim/alloc_guard.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/partition.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace rss::sim {
namespace {

using namespace rss::sim::literals;

TEST(AllocGuard, HookIsInstalledAndCounts) {
  ASSERT_TRUE(alloc_guard::installed());
  const alloc_guard::AllocScope scope;
  std::vector<std::uint64_t> v(1024);  // allocator reaches operator new
  EXPECT_GE(scope.allocations(), 1u);
  EXPECT_GE(scope.bytes(), 1024 * sizeof(std::uint64_t));
}

TEST(AllocGuard, InlineCallbackNeverAllocates) {
  std::uint64_t sink = 0;
  const alloc_guard::AllocScope scope;
  for (int i = 0; i < 1000; ++i) {
    Scheduler::Callback cb{[&sink] { ++sink; }};
    Scheduler::Callback moved{std::move(cb)};
    moved();
  }
  EXPECT_EQ(sink, 1000u);
  EXPECT_EQ(scope.allocations(), 0u);
}

/// The per-ACK RTO pattern: arm a timer, cancel it, arm the next one, with a
/// periodic pop keeping the queue's drain path hot too.
void rto_storm_round(Scheduler& s, std::uint64_t& fired, int iterations) {
  for (int i = 0; i < iterations; ++i) {
    const EventId rto = s.schedule_in(10_ms, [&fired] { ++fired; });
    s.schedule_in(1_us, [&fired] { ++fired; });  // tick, popped below
    ASSERT_TRUE(s.cancel(rto));
    s.run_until(s.now() + 2_us);  // pops the tick, leaves nothing pending
    ASSERT_TRUE(s.empty());
  }
}

TEST(AllocGuard, SteadyStateScheduleCancelRescheduleIsAllocFree) {
  Scheduler s;
  std::uint64_t fired = 0;
  rto_storm_round(s, fired, 2000);  // warm-up: arena + queue storage growth
  const std::size_t warm_slots = s.arena_slots();

  const alloc_guard::AllocScope scope;
  rto_storm_round(s, fired, 2000);
  EXPECT_EQ(scope.allocations(), 0u)
      << "steady-state schedule/cancel/reschedule allocated " << scope.allocations()
      << " times (" << scope.bytes() << " bytes)";
  EXPECT_EQ(s.arena_slots(), warm_slots) << "slot arena grew in steady state";
}

TEST(AllocGuard, SteadyStateTrainPopLoopIsAllocFree) {
  Scheduler s;
  std::uint64_t fired = 0;
  auto run_train = [&] {
    s.schedule_train(s.now() + 1_us, 12_us, 3000, [&fired] { ++fired; });
    s.run();
  };
  run_train();  // warm-up
  ASSERT_EQ(fired, 3000u);

  const alloc_guard::AllocScope scope;
  run_train();
  EXPECT_EQ(fired, 6000u);
  EXPECT_EQ(scope.allocations(), 0u)
      << "steady-state train pop loop allocated " << scope.allocations() << " times ("
      << scope.bytes() << " bytes)";
}

TEST(AllocGuard, CancelInsideTrainStaysAllocFree) {
  Scheduler s;
  auto round = [&] {
    std::uint64_t fired = 0;
    EventId id{};
    id = s.schedule_train(s.now() + 1_us, 5_us, 1000, [&] {
      if (++fired == 100) s.cancel(id);
    });
    s.run();
    EXPECT_EQ(fired, 100u);
  };
  round();  // warm-up: arena slot + heap storage

  const alloc_guard::AllocScope scope;
  round();
  EXPECT_EQ(scope.allocations(), 0u);
}

/// Steady-state partitioned window loop: once the handoff channels' staging
/// vectors, the merge scratch, and both schedulers' arenas are warm, a
/// window round — stage, publish, drain, deliver — performs no heap
/// allocation. Measured on the single-worker path (threads = 1): libstdc++'s
/// std::barrier allocates its own state, so the threaded path pays a fixed
/// per-run_until setup cost, but the per-window loop itself is shared.
TEST(AllocGuard, SteadyStatePartitionWindowLoopIsAllocFree) {
  struct Counter {
    Simulation* sim{nullptr};
    std::uint64_t delivered{0};

    static void deliver(void* self, const std::byte* payload, Time at, Time staged_at,
                        std::uint32_t origin, std::uint64_t rank) {
      (void)payload;
      auto* c = static_cast<Counter*>(self);
      c->sim->at_imported(origin, rank, staged_at, at, [c] { ++c->delivered; });
    }
  };

  Simulation a{1};
  Simulation b{2};
  PartitionedEngine engine{{&a, &b}, {.lookahead = 100_us, .threads = 1}};
  HandoffChannel& ab = engine.add_channel(0, 1);
  Counter counter{&b, 0};

  Time horizon = Time::zero();
  auto round = [&](int windows) {
    const Time start = horizon;
    for (int i = 0; i < windows; ++i) {
      a.at(start + Time::microseconds(i * 100), [&] {
        const std::uint64_t tag = 0;
        ab.stage(a.now() + 100_us, a.now(), 0, a.scheduler().draw_rank(0), &counter,
                 &Counter::deliver, tag);
      });
    }
    horizon = start + Time::microseconds(windows * 100 + 200);
    engine.run_until(horizon);
  };

  round(64);  // warm-up: channel storage, merge scratch, both arenas
  ASSERT_EQ(counter.delivered, 64u);

  const alloc_guard::AllocScope scope;
  round(64);
  EXPECT_EQ(counter.delivered, 128u);
  EXPECT_EQ(scope.allocations(), 0u)
      << "steady-state window loop allocated " << scope.allocations() << " times ("
      << scope.bytes() << " bytes)";
}

}  // namespace
}  // namespace rss::sim
