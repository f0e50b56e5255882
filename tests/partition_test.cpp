// Partitioned execution: graph partitioning, the conservative-lookahead
// window engine, cross-partition handoff, and — the headline claim —
// determinism: a partitioned run of every preset produces byte-identical
// flow-observable state to the classic single-scheduler run, regardless of
// thread count or timing.
//
// The handoff stress tests double as the TSan surface for the engine (CI's
// tsan job runs this binary); they push many concurrent windows' worth of
// staged handoffs through the two-barrier round loop.

#include "sim/partition.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/cross_link.hpp"
#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/dumbbell.hpp"
#include "scenario/presets.hpp"
#include "scenario/topology.hpp"
#include "scenario/wan_path.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"
#include "web100/mib.hpp"

namespace rss {
namespace {

using namespace rss::sim::literals;
using scenario::ExecutionPolicy;
using scenario::PartitionStrategy;
using scenario::TopologySpec;

// --- graph partitioning ---------------------------------------------------

TEST(PartitionGraph, BlocksAreContiguousAndBalanced) {
  const auto a = sim::partition_blocks(10, 3);
  ASSERT_EQ(a.size(), 10u);
  EXPECT_EQ(sim::partition_count(a), 3u);
  // Labels are non-decreasing along node order (contiguous blocks).
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_LE(a[i - 1], a[i]);
}

TEST(PartitionGraph, LatencyGuidedKeepsLowLatencyEdgesInternal) {
  // Two 3-node clusters joined by one high-latency edge: the cut must land
  // on that edge.
  std::vector<sim::PartitionEdge> edges = {
      {0, 1, 1_ms}, {1, 2, 1_ms}, {3, 4, 1_ms}, {4, 5, 1_ms}, {2, 3, 50_ms},
  };
  const auto a = sim::partition_by_latency(6, edges, 2);
  ASSERT_EQ(sim::partition_count(a), 2u);
  EXPECT_EQ(a[0], a[1]);
  EXPECT_EQ(a[1], a[2]);
  EXPECT_EQ(a[3], a[4]);
  EXPECT_EQ(a[4], a[5]);
  EXPECT_NE(a[2], a[3]);
  EXPECT_EQ(sim::min_cut_latency(edges, a), 50_ms);
}

TEST(PartitionGraph, DisconnectedComponentsStaySeparate) {
  const auto a = sim::partition_by_latency(4, {{0, 1, 1_ms}, {2, 3, 1_ms}}, 2);
  EXPECT_EQ(sim::partition_count(a), 2u);
  EXPECT_EQ(a[0], a[1]);
  EXPECT_EQ(a[2], a[3]);
}

TEST(PartitionGraph, MinCutLatencyIsInfinityWithoutCutEdges) {
  const std::vector<sim::PartitionEdge> edges = {{0, 1, 1_ms}};
  const std::vector<std::uint32_t> same = {0, 0};
  EXPECT_EQ(sim::min_cut_latency(edges, same), sim::Time::infinity());
}

// --- engine window mechanics ----------------------------------------------

/// Minimal cross-partition consumer: records delivery times on the dst sim.
struct Recorder {
  sim::Simulation* sim{nullptr};
  std::vector<sim::Time> delivered;

  static void deliver(void* self, const std::byte* payload, sim::Time at,
                      sim::Time staged_at, std::uint32_t origin, std::uint64_t rank) {
    (void)payload;  // the tag only proves arbitrary payloads ride through
    auto* r = static_cast<Recorder*>(self);
    r->sim->at_imported(origin, rank, staged_at, at, [r, at] { r->delivered.push_back(at); });
  }
};

TEST(PartitionedEngine, WindowsRespectLookaheadAndDeliverHandoffs) {
  sim::Simulation a{1};
  sim::Simulation b{2};
  sim::PartitionedEngine engine{{&a, &b},
                               {.lookahead = 10_ms, .threads = 1}};
  sim::HandoffChannel& a_to_b = engine.add_channel(0, 1);

  Recorder recorder{&b, {}};
  // Partition 0 sends one handoff per millisecond for 50 ms, each arriving
  // 10 ms (= the lookahead) later.
  for (int i = 0; i < 50; ++i) {
    a.at(sim::Time::milliseconds(i), [&, i] {
      const std::uint64_t tag = static_cast<std::uint64_t>(i);
      a_to_b.stage(a.now() + 10_ms, a.now(), 0, a.scheduler().draw_rank(0), &recorder,
                   &Recorder::deliver, tag);
    });
  }
  engine.run_until(sim::Time::milliseconds(100));

  EXPECT_EQ(recorder.delivered.size(), 50u);
  for (std::size_t i = 0; i < recorder.delivered.size(); ++i)
    EXPECT_EQ(recorder.delivered[i], sim::Time::milliseconds(static_cast<std::int64_t>(i)) + 10_ms);
  EXPECT_EQ(engine.handoffs_delivered(), 50u);
  EXPECT_GT(engine.windows_executed(), 0u);
  EXPECT_EQ(a.now(), sim::Time::milliseconds(100));
  EXPECT_EQ(b.now(), sim::Time::milliseconds(100));
}

TEST(PartitionedEngine, ThreadedRunMatchesSingleWorker) {
  const auto run = [](std::size_t threads) {
    sim::Simulation a{1};
    sim::Simulation b{2};
    sim::PartitionedEngine engine{{&a, &b}, {.lookahead = 1_ms, .threads = threads}};
    sim::HandoffChannel& ab = engine.add_channel(0, 1);
    sim::HandoffChannel& ba = engine.add_channel(1, 0);

    Recorder to_b{&b, {}};
    Recorder to_a{&a, {}};
    // Ping-pong: every delivery triggers the next send from the other side.
    for (int i = 0; i < 200; ++i) {
      a.at(sim::Time::microseconds(i * 7), [&] {
        const std::uint64_t tag = 1;
        ab.stage(a.now() + 1_ms, a.now(), 0, a.scheduler().draw_rank(0), &to_b,
                 &Recorder::deliver, tag);
      });
      b.at(sim::Time::microseconds(i * 11), [&] {
        const std::uint64_t tag = 2;
        ba.stage(b.now() + 1_ms, b.now(), 0, b.scheduler().draw_rank(0), &to_a,
                 &Recorder::deliver, tag);
      });
    }
    engine.run_until(sim::Time::milliseconds(20));
    return std::make_pair(to_a.delivered, to_b.delivered);
  };

  const auto single = run(1);
  const auto threaded = run(4);
  EXPECT_EQ(single.first, threaded.first);
  EXPECT_EQ(single.second, threaded.second);
}

TEST(PartitionedEngine, PropagatesExceptionsFromWorkers) {
  sim::Simulation a{1};
  sim::Simulation b{2};
  sim::PartitionedEngine engine{{&a, &b}, {.lookahead = 1_ms, .threads = 2}};
  a.at(5_ms, [] { throw std::runtime_error("boom in partition 0"); });
  EXPECT_THROW(engine.run_until(10_ms), std::runtime_error);
}

// A lookahead wider than a cross link's latency lets a handoff land at or
// before the destination's clock. The engine must refuse it in every build
// type, including the one that is due exactly at now(), which the
// destination scheduler alone would accept and run out of order.
TEST(PartitionedEngine, LookaheadBeyondCrossLinkDelayThrows) {
  for (const sim::Time delay : {5_ms, 10_ms - sim::Time::nanoseconds(1)}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      sim::Simulation a{1};
      sim::Simulation b{2};
      sim::PartitionedEngine engine{{&a, &b}, {.lookahead = 10_ms, .threads = threads}};
      sim::HandoffChannel& a_to_b = engine.add_channel(0, 1);
      Recorder recorder{&b, {}};
      a.at(0_ms, [&] {
        const std::uint64_t tag = 0;
        a_to_b.stage(a.now() + delay, a.now(), 0, a.scheduler().draw_rank(0), &recorder,
                     &Recorder::deliver, tag);
      });
      try {
        engine.run_until(50_ms);
        ADD_FAILURE() << "expected a causality error (delay " << delay << ", threads "
                      << threads << ")";
      } catch (const std::logic_error& e) {
        EXPECT_NE(std::string{e.what()}.find("lookahead 10ms"), std::string::npos) << e.what();
      }
      EXPECT_TRUE(recorder.delivered.empty());
    }
  }
}

/// TSan surface: a dense, multi-window handoff storm across 4 partitions in
/// a ring, with every partition staging into two channels per window.
TEST(PartitionedEngine, HandoffStressRing) {
  constexpr std::size_t kParts = 4;
  std::vector<std::unique_ptr<sim::Simulation>> sims;
  std::vector<sim::Simulation*> ptrs;
  for (std::size_t p = 0; p < kParts; ++p) {
    sims.push_back(std::make_unique<sim::Simulation>(p + 1));
    ptrs.push_back(sims.back().get());
  }
  sim::PartitionedEngine engine{std::move(ptrs), {.lookahead = 100_us, .threads = kParts}};

  std::vector<Recorder> recorders;
  recorders.reserve(kParts);
  for (std::size_t p = 0; p < kParts; ++p) recorders.push_back({sims[p].get(), {}});

  std::vector<sim::HandoffChannel*> next_hop;
  std::vector<sim::HandoffChannel*> prev_hop;
  for (std::size_t p = 0; p < kParts; ++p) {
    next_hop.push_back(&engine.add_channel(p, (p + 1) % kParts));
    prev_hop.push_back(&engine.add_channel(p, (p + kParts - 1) % kParts));
  }

  for (std::size_t p = 0; p < kParts; ++p) {
    for (int i = 0; i < 500; ++i) {
      sims[p]->at(sim::Time::microseconds(i * 13 + static_cast<std::int64_t>(p)), [&, p] {
        const std::uint64_t tag = p;
        Recorder& fwd = recorders[(p + 1) % kParts];
        Recorder& back = recorders[(p + kParts - 1) % kParts];
        next_hop[p]->stage(sims[p]->now() + 100_us, sims[p]->now(), 0,
                           sims[p]->scheduler().draw_rank(0), &fwd, &Recorder::deliver, tag);
        prev_hop[p]->stage(sims[p]->now() + 150_us, sims[p]->now(), 0,
                           sims[p]->scheduler().draw_rank(0), &back, &Recorder::deliver, tag);
      });
    }
  }
  engine.run_until(sim::Time::milliseconds(10));

  std::size_t total = 0;
  for (const auto& r : recorders) total += r.delivered.size();
  EXPECT_EQ(total, kParts * 500 * 2);
  EXPECT_EQ(engine.handoffs_delivered(), total);
}

// --- builder validation ---------------------------------------------------

TEST(PartitionBuilder, ZeroLatencyCutIsRejected) {
  TopologySpec spec;
  spec.nodes = {"a", "b"};
  scenario::LinkSpec link;
  link.a = "a";
  link.b = "b";
  link.delay = sim::Time::zero();
  link.a_dev = {net::DataRate::mbps(100), 100};
  link.b_dev = {net::DataRate::mbps(100), 100};
  spec.links.push_back(link);
  spec.execution.partitions = 2;

  try {
    (void)scenario::ScenarioBuilder{spec}.build(scenario::make_reno_factory());
    FAIL() << "expected TopologyError";
  } catch (const scenario::TopologyError& e) {
    EXPECT_EQ(e.code(), scenario::TopologyError::Code::kZeroLatencyCut);
  }
}

TEST(PartitionBuilder, ZeroPartitionsIsRejected) {
  TopologySpec spec;
  spec.nodes = {"a"};
  spec.execution.partitions = 0;
  try {
    (void)scenario::ScenarioBuilder{spec}.build(scenario::make_reno_factory());
    FAIL() << "expected TopologyError";
  } catch (const scenario::TopologyError& e) {
    EXPECT_EQ(e.code(), scenario::TopologyError::Code::kBadExecution);
  }
}

TEST(PartitionBuilder, RequestsBeyondNodeCountAreClamped) {
  scenario::Dumbbell::Config cfg;
  cfg.flows = 2;
  cfg.execution.partitions = 64;  // far beyond the 6 nodes
  scenario::Dumbbell db{cfg, [](std::size_t) { return scenario::make_reno_factory()(); }};
  EXPECT_LE(db.scenario().partition_count(), 6u);
  EXPECT_GT(db.scenario().partition_count(), 1u);
}

TEST(PartitionBuilder, CrossPartitionLinksRejectLossAndJitter) {
  scenario::Dumbbell::Config cfg;
  cfg.flows = 2;
  cfg.execution.partitions = 2;
  cfg.execution.strategy = PartitionStrategy::kAuto;
  scenario::Dumbbell db{cfg, [](std::size_t) { return scenario::make_reno_factory()(); }};
  ASSERT_EQ(db.scenario().partition_count(), 2u);
  // The bottleneck carries the largest delay, so kAuto cuts there; its link
  // must be the cross-partition kind, which refuses RNG-drawing knobs.
  net::PointToPointLink* bottleneck = db.bottleneck().link();
  ASSERT_NE(bottleneck, nullptr);
  EXPECT_THROW(bottleneck->set_loss_rate(0.01, sim::Rng{7}), std::logic_error);
  EXPECT_THROW(bottleneck->set_jitter(1_ms, sim::Rng{7}), std::logic_error);
}

// --- parity: partitioned == single-threaded, on every preset --------------

/// Everything flow-observable, for exact comparison.
[[nodiscard]] std::vector<std::uint64_t> fingerprint(scenario::Scenario& s,
                                                     std::size_t flows) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < flows; ++i) {
    const web100::Mib& mib = s.sender(i).mib();
    out.push_back(mib.ThruBytesAcked);
    out.push_back(mib.PktsOut);
    out.push_back(mib.PktsRetrans);
    out.push_back(mib.SendStall);
    out.push_back(mib.Timeouts);
  }
  return out;
}

[[nodiscard]] std::vector<std::uint64_t> run_with_partitions(TopologySpec spec,
                                                             std::size_t partitions,
                                                             sim::Time horizon) {
  spec.execution.partitions = partitions;
  auto scenario = scenario::ScenarioBuilder{spec}.build(scenario::make_reno_factory());
  for (std::size_t i = 0; i < spec.flows.size(); ++i)
    scenario->start_flow(i, sim::Time::zero());
  if (partitions > 1) {
    EXPECT_GT(scenario->partition_count(), 1u);
  }
  scenario->run_until(horizon);
  return fingerprint(*scenario, spec.flows.size());
}

void expect_partition_parity(const TopologySpec& spec, std::size_t partitions,
                             sim::Time horizon) {
  const auto single = run_with_partitions(spec, 1, horizon);
  const auto parted = run_with_partitions(spec, partitions, horizon);
  EXPECT_EQ(single, parted);
  bool progressed = false;
  for (const std::uint64_t v : single) progressed = progressed || v != 0;
  EXPECT_TRUE(progressed) << "parity run transferred no data — vacuous comparison";
}

TEST(PartitionParity, WanPath) {
  expect_partition_parity(scenario::WanPath::make_spec({}), 2, 2_s);
}

TEST(PartitionParity, Dumbbell) {
  scenario::Dumbbell::Config cfg;
  cfg.flows = 4;
  expect_partition_parity(scenario::Dumbbell::make_spec(cfg), 2, 2_s);
}

TEST(PartitionParity, ParkingLot) {
  expect_partition_parity(scenario::ParkingLot::make_spec({}), 2, 2_s);
}

// Regression pin: this exact configuration (1-hop parking lot, 5 cross
// flows, 100 Mbit/s access matching the bottleneck) broke 4-partition
// parity when same-timestamp pops were ordered by raw insertion sequence —
// identical access rates make exact delivery ties routine, and the
// partitioned pop path resolved them by partition-local order. The shared
// intrinsic (time, origin-hash) tie-break restored parity; keep it pinned.
TEST(PartitionParity, ParkingLotFourWayWithSymmetricAccessRates) {
  scenario::ParkingLot::Config cfg;
  cfg.hops = 1;
  cfg.cross_flows_per_hop = 5;
  cfg.access_rate = net::DataRate::mbps(100);
  cfg.bottleneck_rate = net::DataRate::mbps(100);
  expect_partition_parity(scenario::ParkingLot::make_spec(cfg), 4, 2_s);
}

TEST(PartitionParity, MultiBottleneckChain) {
  expect_partition_parity(scenario::MultiBottleneckChain::make_spec({}), 2, 2_s);
}

TEST(PartitionParity, ScaleMeshTwoAndFourWay) {
  scenario::ScaleMesh::Config cfg;
  cfg.segments = 4;
  cfg.flows_per_segment = 4;
  cfg.cross_flows_per_segment = 2;
  const TopologySpec spec = scenario::ScaleMesh::make_spec(cfg);
  expect_partition_parity(spec, 2, 1_s);
  expect_partition_parity(spec, 4, 1_s);
}

TEST(PartitionParity, BlockStrategyMatchesToo) {
  scenario::ScaleMesh::Config cfg;
  cfg.segments = 4;
  cfg.flows_per_segment = 2;
  cfg.cross_flows_per_segment = 1;
  cfg.execution.strategy = PartitionStrategy::kBlock;
  expect_partition_parity(scenario::ScaleMesh::make_spec(cfg), 4, 1_s);
}

TEST(PartitionParity, ThreadCountDoesNotChangeResults) {
  scenario::ScaleMesh::Config cfg;
  cfg.segments = 3;
  cfg.flows_per_segment = 3;
  cfg.cross_flows_per_segment = 1;
  TopologySpec spec = scenario::ScaleMesh::make_spec(cfg);
  spec.execution.partitions = 3;

  std::vector<std::vector<std::uint64_t>> prints;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    spec.execution.threads = threads;
    auto s = scenario::ScenarioBuilder{spec}.build(scenario::make_reno_factory());
    for (std::size_t i = 0; i < spec.flows.size(); ++i) s->start_flow(i, sim::Time::zero());
    s->run_until(1_s);
    prints.push_back(fingerprint(*s, spec.flows.size()));
  }
  EXPECT_EQ(prints[0], prints[1]);
  EXPECT_EQ(prints[0], prints[2]);
}

}  // namespace
}  // namespace rss
