// net::DeliveryLine: a wire's packets in flight behind one armed event.
// Each differential test runs one transmit plan twice — through a
// DeliveryLine, and as one keyed event per packet (the scheduling the line
// replaces) — and demands the same (time, uid) arrival trace, with
// unrelated events at the same instants in it too.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/delivery_line.hpp"
#include "net/device.hpp"
#include "net/queue.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"

namespace rss::net {
namespace {

using namespace rss::sim::literals;

using Trace = std::vector<std::pair<sim::Time, std::uint64_t>>;

/// One transmit of the plan: at `at`, endpoint `from` (0 or 1) sends with
/// `extra` on top of the wire delay (jitter).
struct Send {
  sim::Time at;
  int from;
  sim::Time extra;
};

constexpr std::uint64_t kReplyUid = 10'000;
constexpr std::uint64_t kUnrelatedUid = 20'000;

/// Two endpoints with distinct origins and a 1 ms wire between them,
/// carried either by a DeliveryLine or by one schedule_keyed event per
/// packet. Every fourth plan packet is answered on arrival — a delivery
/// that cascades into another transmit on the same wire — and every third
/// send also schedules an untagged event for the instant a jitter-free
/// delivery would land.
class Wire {
 public:
  explicit Wire(bool use_line) : use_line_{use_line} {
    a_.set_event_origin(3);
    b_.set_event_origin(7);
    a_.set_receive_callback([this](const Packet& p, NetDevice&) { arrived(p, 1); });
    b_.set_receive_callback([this](const Packet& p, NetDevice&) { arrived(p, 0); });
  }

  Trace run(const std::vector<Send>& plan) {
    for (std::size_t k = 0; k < plan.size(); ++k) {
      sim_.at(plan[k].at, [this, &plan, k] {
        send(plan[k].from, plan[k].extra, k);
        if (k % 3 == 0)
          sim_.in(kDelay, [this, k] { trace.emplace_back(sim_.now(), kUnrelatedUid + k); });
      });
    }
    sim_.run();
    return trace;
  }

  Trace trace;

 private:
  static constexpr sim::Time kDelay = 1_ms;

  void send(int from, sim::Time extra, std::uint64_t uid) {
    NetDevice& src = from == 0 ? a_ : b_;
    NetDevice* to = from == 0 ? &b_ : &a_;
    const sim::EventKey key =
        sim_.scheduler().draw_key(src.event_origin(), sim_.now() + kDelay + extra);
    Packet p;
    p.uid = uid;
    if (use_line_) {
      line_.push(key, *to, p);
    } else {
      sim_.scheduler().schedule_keyed(key, [to, p_uid = uid] {
        Packet q;
        q.uid = p_uid;
        to->deliver_up(q);
      });
    }
  }

  void arrived(const Packet& p, int reply_from) {
    trace.emplace_back(sim_.now(), p.uid);
    if (p.uid < kReplyUid && p.uid % 4 == 0)
      send(reply_from, sim::Time::microseconds(static_cast<std::int64_t>(p.uid % 8) * 125),
           kReplyUid + p.uid);
  }

  bool use_line_;
  sim::Simulation sim_{1};
  NetDevice a_{sim_, DataRate::gbps(1), std::make_unique<DropTailQueue>(10), "a"};
  NetDevice b_{sim_, DataRate::gbps(1), std::make_unique<DropTailQueue>(10), "b"};
  DeliveryLine line_{sim_.scheduler()};
};

Trace run_line(const std::vector<Send>& plan) { return Wire{true}.run(plan); }
Trace run_per_packet(const std::vector<Send>& plan) { return Wire{false}.run(plan); }

TEST(DeliveryLineTest, JitteredDeliveriesArriveInKeyOrder) {
  sim::Rng rng{5};
  std::vector<Send> plan;
  for (int i = 0; i < 400; ++i) {
    const auto extra = static_cast<std::int64_t>(rng.next_in(0, 2'000'000));
    plan.push_back({sim::Time::microseconds(i * 50), i % 5 == 0 ? 1 : 0,
                    sim::Time::nanoseconds(extra)});
  }
  const Trace got = run_line(plan);
  EXPECT_EQ(got, run_per_packet(plan));

  // The plan really reorders: some packet overtakes an earlier one.
  std::size_t overtakes = 0;
  std::uint64_t highest = 0;
  for (const auto& [at, uid] : got) {
    if (uid >= kReplyUid) continue;
    if (uid < highest) ++overtakes;
    highest = std::max(highest, uid);
  }
  EXPECT_GT(overtakes, 50u);
}

TEST(DeliveryLineTest, SameInstantTiesInBothDirectionsMatchPerPacketScheduling) {
  // Both endpoints transmit at the same instants with no jitter: every
  // delivery ties with one from the other direction on (at, birth) and with
  // the untagged events, so only the origin-rank tie-break orders them.
  std::vector<Send> plan;
  for (int i = 0; i < 300; ++i) {
    const sim::Time at = sim::Time::microseconds((i / 2) * 40);
    plan.push_back({at, i % 2, sim::Time::zero()});
  }
  const Trace got = run_line(plan);
  EXPECT_EQ(got, run_per_packet(plan));

  std::size_t ties = 0;
  for (std::size_t i = 1; i < got.size(); ++i) ties += got[i].first == got[i - 1].first;
  EXPECT_GT(ties, 150u);
}

// A delivery that sends on its own line, ahead of the packets still on
// the wire: the reply becomes the new head, and every packet still arrives
// once, at its own time.
TEST(DeliveryLineTest, DeliveryMaySendAheadOfPacketsStillOnTheWire) {
  sim::Simulation sim{1};
  NetDevice a{sim, DataRate::gbps(1), std::make_unique<DropTailQueue>(10), "a"};
  NetDevice b{sim, DataRate::gbps(1), std::make_unique<DropTailQueue>(10), "b"};
  DeliveryLine line{sim.scheduler()};
  const auto put = [&](NetDevice& to, std::uint64_t uid, sim::Time at) {
    Packet p;
    p.uid = uid;
    line.push(sim.scheduler().draw_key(1, at), to, p);
  };
  Trace got;
  b.set_receive_callback([&](const Packet& p, NetDevice&) {
    got.emplace_back(sim.now(), p.uid);
    if (p.uid == 1) put(a, 3, sim.now() + 1_ms);  // lands before packet 2
  });
  a.set_receive_callback([&](const Packet& p, NetDevice&) { got.emplace_back(sim.now(), p.uid); });
  put(b, 1, 1_ms);
  put(b, 2, 5_ms);
  sim.run();
  EXPECT_EQ(got, (Trace{{1_ms, 1}, {2_ms, 3}, {5_ms, 2}}));
  EXPECT_TRUE(sim.scheduler().empty());
}

TEST(DeliveryLineTest, HoldsOnePendingEventPerBusyLine) {
  sim::Simulation sim{1};
  NetDevice to{sim, DataRate::gbps(1), std::make_unique<DropTailQueue>(10), "to"};
  std::vector<std::uint64_t> got;
  to.set_receive_callback([&got](const Packet& p, NetDevice&) { got.push_back(p.uid); });
  DeliveryLine line{sim.scheduler()};
  for (std::uint64_t uid = 0; uid < 100; ++uid) {
    Packet p;
    p.uid = uid;
    line.push(sim.scheduler().draw_key(1, sim::Time::microseconds(static_cast<std::int64_t>(uid))),
              to, p);
  }
  EXPECT_EQ(line.size(), 100u);
  EXPECT_EQ(sim.scheduler().pending(), 1u);
  sim.run();
  EXPECT_EQ(line.size(), 0u);
  EXPECT_EQ(line.delivered(), 100u);
  ASSERT_EQ(got.size(), 100u);
  for (std::uint64_t uid = 0; uid < 100; ++uid) EXPECT_EQ(got[uid], uid);
}

}  // namespace
}  // namespace rss::net
