#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <tuple>

#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/presets.hpp"
#include "tcp/reno.hpp"

namespace rss {
namespace {

using namespace rss::sim::literals;
using scenario::ScenarioBuilder;
using scenario::wan_path_spec;
using scenario::WanPathConfig;

WanPathConfig base_config() {
  WanPathConfig cfg;
  cfg.sender.trace_cwnd = true;
  cfg.sender.trace_stalls = true;
  return cfg;
}

TEST(TcpIntegrationTest, BulkTransferDeliversInOrderData) {
  auto wan = ScenarioBuilder{wan_path_spec(base_config())}.build(scenario::make_reno_factory());
  wan->start_flow(0, sim::Time::zero());
  wan->run_until(5_s);
  EXPECT_GT(wan->receiver(0).bytes_received(), 1'000'000u);
  // Everything acked was received.
  EXPECT_LE(wan->sender(0).bytes_acked(), wan->receiver(0).bytes_received() + 1460);
  EXPECT_GT(wan->sender(0).bytes_acked(), 0u);
}

TEST(TcpIntegrationTest, FiniteTransferCompletesExactly) {
  WanPathConfig cfg = base_config();
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_reno_factory());
  const std::uint64_t object = 500'000;
  wan->simulation().at(0_s, [&] { wan->sender(0).app_write(object); });
  wan->run_until(30_s);
  EXPECT_EQ(wan->receiver(0).bytes_received(), object);
  EXPECT_EQ(wan->sender(0).bytes_acked(), object);
}

TEST(TcpIntegrationTest, StandardTcpSuffersSendStalls) {
  // The paper's §2 phenomenon: stock slow-start overflows the IFQ.
  auto wan = ScenarioBuilder{wan_path_spec(base_config())}.build(scenario::make_reno_factory());
  wan->start_flow(0, sim::Time::zero());
  wan->run_until(10_s);
  EXPECT_GT(wan->sender(0).mib().SendStall, 0u);
  EXPECT_GT(wan->sender(0).mib().OtherReductions, 0u);
}

TEST(TcpIntegrationTest, StallsHappenInSlowStartNotCongestionAvoidance) {
  // Paper §2: "these congestion events are generated in the slow-start
  // phase rather than in the congestion avoidance phase". The first stall
  // must occur while cwnd < ssthresh held (i.e. within the first RTTs).
  auto wan = ScenarioBuilder{wan_path_spec(base_config())}.build(scenario::make_reno_factory());
  wan->start_flow(0, sim::Time::zero());
  wan->run_until(10_s);
  const auto& stalls = wan->sender(0).stall_trace();
  ASSERT_FALSE(stalls.empty());
  EXPECT_LT(stalls.front().t, 2_s);  // early, during initial slow-start
}

TEST(TcpIntegrationTest, RttEstimateMatchesPathRtt) {
  auto wan = ScenarioBuilder{wan_path_spec(base_config())}.build(scenario::make_reno_factory());
  wan->start_flow(0, sim::Time::zero());
  wan->run_until(5_s);
  const auto srtt = wan->sender(0).rtt_estimator().srtt();
  // Propagation 60 ms + serialization/queueing; must be in a sane band.
  EXPECT_GE(srtt, 60_ms);
  EXPECT_LE(srtt, 120_ms);
}

TEST(TcpIntegrationTest, NoRetransmissionsWithoutLoss) {
  // Large IFQ: no stalls, no network loss -> not a single retransmission.
  WanPathConfig cfg = base_config();
  cfg.path.ifq_capacity_packets = 100000;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_reno_factory());
  wan->start_flow(0, sim::Time::zero());
  wan->run_until(5_s);
  EXPECT_EQ(wan->sender(0).mib().PktsRetrans, 0u);
  EXPECT_EQ(wan->sender(0).mib().SendStall, 0u);
  EXPECT_EQ(wan->sender(0).mib().Timeouts, 0u);
}

TEST(TcpIntegrationTest, ThroughputBoundedByLineRate) {
  auto wan = ScenarioBuilder{wan_path_spec(base_config())}.build(scenario::make_reno_factory());
  wan->start_flow(0, sim::Time::zero());
  wan->run_until(10_s);
  EXPECT_LE(wan->sender(0).goodput_mbps(0_s, 10_s), 100.0);
}

TEST(TcpIntegrationTest, RandomLossTriggersFastRetransmitAndRecovers) {
  WanPathConfig cfg = base_config();
  cfg.path.ifq_capacity_packets = 100000;  // isolate network loss
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_reno_factory());
  wan->device("sender", "receiver").link()->set_loss_rate(0.001, sim::Rng{7});
  wan->start_flow(0, sim::Time::zero());
  wan->run_until(20_s);
  EXPECT_GT(wan->sender(0).mib().FastRetran, 0u);
  EXPECT_GT(wan->sender(0).mib().PktsRetrans, 0u);
  // Despite losses, the transfer keeps making progress.
  EXPECT_GT(wan->receiver(0).bytes_received(), 10'000'000u);
  // Receiver saw out-of-order arrivals (the holes).
  EXPECT_GT(wan->receiver(0).out_of_order_packets(), 0u);
}

TEST(TcpIntegrationTest, HeavyLossStillProgresses) {
  WanPathConfig cfg = base_config();
  cfg.path.ifq_capacity_packets = 100000;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_reno_factory());
  wan->device("sender", "receiver").link()->set_loss_rate(0.05, sim::Rng{11});
  wan->start_flow(0, sim::Time::zero());
  wan->run_until(20_s);
  EXPECT_GT(wan->receiver(0).bytes_received(), 100'000u);
  EXPECT_GT(wan->sender(0).mib().Timeouts + wan->sender(0).mib().FastRetran, 0u);
}

TEST(TcpIntegrationTest, CwndTraceRecordsDynamics) {
  auto wan = ScenarioBuilder{wan_path_spec(base_config())}.build(scenario::make_reno_factory());
  wan->start_flow(0, sim::Time::zero());
  wan->run_until(5_s);
  const auto& trace = wan->sender(0).cwnd_trace();
  ASSERT_GT(trace.size(), 100u);
  EXPECT_GT(trace.max_value(), 10.0 * 1460);
}

TEST(TcpIntegrationTest, DelayedAcksRoughlyHalveAckCount) {
  WanPathConfig cfg = base_config();
  cfg.path.ifq_capacity_packets = 100000;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_reno_factory());
  wan->start_flow(0, sim::Time::zero());
  wan->run_until(5_s);
  const double acks = static_cast<double>(wan->receiver(0).acks_sent());
  const double pkts = static_cast<double>(wan->receiver(0).packets_received());
  EXPECT_LT(acks, 0.75 * pkts);
  EXPECT_GT(acks, 0.35 * pkts);
}

TEST(TcpIntegrationTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    auto wan = ScenarioBuilder{wan_path_spec(base_config())}.build(scenario::make_reno_factory());
    wan->start_flow(0, sim::Time::zero());
    wan->run_until(5_s);
    return std::tuple{wan->sender(0).bytes_acked(), wan->sender(0).mib().SendStall,
                      wan->sender(0).mib().PktsOut};
  };
  EXPECT_EQ(run_once(), run_once());
}

// 32-bit sequence wrap: with the ISS a few dozen MSS below 2^32 the transfer
// crosses the wrap in its first round trips; ISSes further below move the
// wrap into later windows and loss recoveries (NewReno and SACK). Every
// counter must equal the same run from ISS 0.
TEST(TcpIntegrationTest, SequenceWrapLeavesTheTransferUnchanged) {
  auto run_from = [](std::uint32_t iss, bool sack) {
    WanPathConfig cfg = base_config();
    cfg.sender.initial_seq = iss;
    cfg.receiver.initial_seq = iss;
    cfg.sender.enable_sack = sack;
    cfg.receiver.enable_sack = sack;
    auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_reno_factory());
    wan->device("sender", "receiver").link()->set_loss_rate(0.001, sim::Rng{7});
    wan->start_flow(0, sim::Time::zero());
    wan->run_until(10_s);
    const auto& s = wan->sender(0);
    return std::tuple{s.bytes_acked(), s.goodput_mbps(sim::Time::zero(), 10_s),
                      s.mib().PktsRetrans, s.mib().FastRetran, s.mib().Timeouts,
                      s.mib().SendStall, wan->receiver(0).bytes_received()};
  };
  for (const bool sack : {false, true}) {
    const auto from_zero = run_from(0, sack);
    ASSERT_GT(std::get<2>(from_zero), 0u) << "the run must retransmit to cover recovery";
    for (const std::uint32_t below_wrap : {1u, 40u * 1460, 1000u * 1460, 4000u * 1460}) {
      ASSERT_GT(std::get<0>(from_zero), below_wrap) << "the run must cross the wrap";
      const auto iss = static_cast<std::uint32_t>((std::uint64_t{1} << 32) - below_wrap);
      EXPECT_EQ(run_from(iss, sack), from_zero)
          << (sack ? "SACK" : "NewReno") << ", ISS 2^32 - " << below_wrap;
    }
  }
}

}  // namespace
}  // namespace rss
