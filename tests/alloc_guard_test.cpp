// Zero-allocation invariant for the event core, enforced at runtime.
//
// PR 3's headline claim is that the steady-state scheduler hot path —
// schedule / cancel / reschedule (the per-ACK RTO pattern) and the chained
// one-shot pop loop (packet serialization bursts) — performs no heap
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
#include <memory>
#include <vector>

#include "net/device.hpp"
#include "net/link.hpp"
#include "net/queue.hpp"
#include "sim/partition.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"
#include "sim/timer.hpp"

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

/// NetDevice's drain pattern: each firing arms the next one-shot from inside
/// its own callback (one slot release and one acquire per packet).
TEST(AllocGuard, SteadyStateChainedPopLoopIsAllocFree) {
  struct Chain {
    Scheduler& s;
    std::uint64_t fired{0};
    std::uint64_t left{0};
    void fire() {
      ++fired;
      if (--left > 0) s.schedule_in(12_us, [this] { fire(); });
    }
  };
  Scheduler s;
  Chain chain{s};
  auto run_chain = [&] {
    chain.left = 3000;
    s.schedule_in(1_us, [&chain] { chain.fire(); });
    s.run();
  };
  run_chain();  // warm-up
  ASSERT_EQ(chain.fired, 3000u);

  const alloc_guard::AllocScope scope;
  run_chain();
  EXPECT_EQ(chain.fired, 6000u);
  EXPECT_EQ(scope.allocations(), 0u)
      << "steady-state chained pop loop allocated " << scope.allocations() << " times ("
      << scope.bytes() << " bytes)";
  EXPECT_EQ(s.arena_slots(), 1u) << "a chain holds one event in flight";
}

/// A warm wire with per-ACK timers: packets cross a jittered
/// PointToPointLink (its DeliveryLine, reordering included), and every
/// arrival restarts an RTO-like Timer and sets or clears a delayed-ACK-like
/// one, as TcpSender and TcpReceiver do. The source hands packets straight
/// to the link, as a device does when a serialization completes.
TEST(AllocGuard, SteadyStateLinkDeliveryAndTimerResetAreAllocFree) {
  Simulation sim{1};
  net::NetDevice a{sim, net::DataRate::mbps(100), std::make_unique<net::DropTailQueue>(1),
                   "a"};
  net::NetDevice b{sim, net::DataRate::mbps(100), std::make_unique<net::DropTailQueue>(1),
                   "b"};
  net::PointToPointLink link{sim, 10_ms};
  link.attach(a, b);
  link.set_jitter(1_ms, Rng{3});

  std::uint64_t expiries = 0;
  const Timer::Expire count = [](void* n) { ++*static_cast<std::uint64_t*>(n); };
  Timer rto{sim.scheduler(), count, &expiries};
  Timer delack{sim.scheduler(), count, &expiries};
  std::uint64_t arrivals = 0;
  b.set_receive_callback([&](const net::Packet&, net::NetDevice&) {
    rto.set_in(200_ms);
    if (++arrivals % 2 == 1) {
      delack.set_in(100_ms);
    } else {
      delack.clear();
    }
  });

  struct Source {
    Simulation& sim;
    net::PointToPointLink& link;
    const net::NetDevice& from;
    std::uint64_t left{0};
    void fire() {
      link.transmit_from(from, net::Packet{});
      if (--left > 0) sim.in(100_us, [this] { fire(); });
    }
  };
  Source source{sim, link, a};
  auto round = [&](std::uint64_t packets) {
    source.left = packets;
    sim.in(100_us, [&source] { source.fire(); });
    sim.run_until(sim.now() + Time::microseconds(static_cast<std::int64_t>(packets) * 100) +
                  300_ms);
  };

  round(4000);  // warm-up: line ring, heap and arena capacity
  ASSERT_EQ(arrivals, 4000u);
  const std::size_t warm_slots = sim.scheduler().arena_slots();

  const alloc_guard::AllocScope scope;
  round(1000);
  const std::uint64_t allocations = scope.allocations();
  EXPECT_EQ(allocations, 0u) << "steady-state link delivery and timer reset allocated "
                             << allocations << " times";
  EXPECT_EQ(arrivals, 5000u);
  // An even arrival count leaves the delayed-ACK timer cleared: each round
  // ends with one RTO expiry.
  EXPECT_EQ(expiries, 2u);
  EXPECT_EQ(sim.scheduler().arena_slots(), warm_slots) << "slot arena grew in steady state";
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

    static void deliver(void* self, const std::byte* payload, const EventKey& key) {
      (void)payload;
      auto* c = static_cast<Counter*>(self);
      c->sim->scheduler().schedule_keyed(key, [c] { ++c->delivered; });
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
        ab.stage(a.scheduler().draw_key(0, a.now() + 100_us), &counter, &Counter::deliver,
                 tag);
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
