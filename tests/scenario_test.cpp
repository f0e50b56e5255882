#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "metrics/summary.hpp"
#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/presets.hpp"
#include "scenario/sweep.hpp"
#include "scenario/tuning.hpp"

namespace rss::scenario {
namespace {

using namespace rss::sim::literals;

TEST(WanPathTest, TopologyMatchesCanonicalPaper) {
  auto wan = ScenarioBuilder{wan_path_spec({})}.build(make_reno_factory());
  const net::NetDevice& nic = wan->device("sender", "receiver");
  EXPECT_EQ(nic.rate(), net::DataRate::mbps(100));
  EXPECT_EQ(nic.ifq_capacity(), 100u);
  EXPECT_EQ(nic.link()->delay(), 30_ms);
  EXPECT_EQ(wan->sender(0).mss(), 1460u);
}

TEST(WanPathTest, Web100AgentPollsWhenEnabled) {
  WanPathConfig cfg;
  cfg.web100_poll_period = 50_ms;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(make_reno_factory());
  wan->start_flow(0, 0_s);
  wan->run_until(1_s);
  ASSERT_NE(wan->agent(0), nullptr);
  EXPECT_GE(wan->agent(0)->polls_taken(), 20u);
  EXPECT_GT(wan->agent(0)->series("ThruBytesAcked").back().value, 0.0);
}

TEST(WanPathTest, Web100CanBeDisabled) {
  WanPathConfig cfg;
  cfg.enable_web100 = false;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(make_reno_factory());
  EXPECT_EQ(wan->agent(0), nullptr);
}

TEST(WanPathTest, BdpMatchesHandComputation) {
  const core::CanonicalPath path{};
  // 100 Mbps * 60 ms = 750000 bytes / 1500 B-frames = 500 packets.
  EXPECT_NEAR(path.bdp_packets(), 500.0, 1.0);
  EXPECT_EQ(path.rtt(), 60_ms);
}

TEST(DumbbellTest, FlowsShareBottleneckFairly) {
  DumbbellConfig cfg;
  cfg.flows = 4;
  auto d = ScenarioBuilder{dumbbell_spec(cfg)}.build(make_reno_factory());
  for (std::size_t i = 0; i < 4; ++i) d->start_flow(i, 0_s);
  d->run_until(30_s);

  const auto goodputs = d->goodputs_mbps(0_s, 30_s);
  const double total = std::accumulate(goodputs.begin(), goodputs.end(), 0.0);
  EXPECT_GT(total, 50.0);   // bottleneck is reasonably utilized
  EXPECT_LE(total, 100.0);  // and not exceeded
  EXPECT_GT(metrics::jain_fairness(goodputs), 0.7);
}

TEST(DumbbellTest, RouterQueueCongestionCausesNetworkDrops) {
  DumbbellConfig cfg;
  cfg.flows = 2;
  cfg.router_queue_packets = 30;
  auto d = ScenarioBuilder{dumbbell_spec(cfg)}.build(make_reno_factory());
  d->start_flow(0, 0_s);
  d->start_flow(1, 100_ms);
  d->run_until(15_s);
  EXPECT_GT(d->device("routerL", "routerR").ifq().stats().dropped, 0u);
  // Senders saw fast retransmits from those drops.
  EXPECT_GT(d->sender(0).mib().FastRetran + d->sender(1).mib().FastRetran, 0u);
}

TEST(DumbbellTest, MixedAlgorithmsCoexist) {
  DumbbellConfig cfg;
  cfg.flows = 2;
  auto d = ScenarioBuilder{dumbbell_spec(cfg)}.build(
      striped_cc({make_rss_factory(), make_reno_factory()}));
  d->start_flow(0, 0_s);
  d->start_flow(1, 0_s);
  d->run_until(20_s);
  EXPECT_EQ(d->sender(0).congestion_control().name(), "restricted-slow-start");
  EXPECT_EQ(d->sender(1).congestion_control().name(), "reno");
  EXPECT_GT(d->sender(0).bytes_acked(), 0u);
  EXPECT_GT(d->sender(1).bytes_acked(), 0u);
}

TEST(DumbbellTest, ValidatesConfig) {
  DumbbellConfig cfg;
  cfg.flows = 0;
  EXPECT_THROW((void)dumbbell_spec(cfg), std::invalid_argument);
}

TEST(ParallelSweepTest, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(100);
  parallel_sweep(100, [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelSweepTest, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_sweep(
          16, [](std::size_t i) { if (i == 7) throw std::runtime_error("boom"); }, 4),
      std::runtime_error);
}

TEST(ParallelSweepTest, ZeroCountIsNoop) {
  parallel_sweep(0, [](std::size_t) { FAIL(); }, 4);
}

TEST(ParallelSweepTest, SingleThreadPathWorks) {
  int sum = 0;
  parallel_sweep(10, [&](std::size_t i) { sum += static_cast<int>(i); }, 1);
  EXPECT_EQ(sum, 45);
}

TEST(ParallelMapTest, ResultsArePositional) {
  const std::vector<int> in{1, 2, 3, 4, 5};
  const auto out = parallel_map(in, [](int x) { return x * x; }, 4);
  EXPECT_EQ(out, (std::vector<int>{1, 4, 9, 16, 25}));
}

TEST(ParallelSweepTest, IndependentSimulationsRunConcurrently) {
  // Smoke test for thread-safety of whole-simulation parallelism: N
  // identical WAN paths must produce identical results.
  std::vector<std::uint64_t> acked(6);
  parallel_sweep(
      6,
      [&](std::size_t i) {
        auto wan = ScenarioBuilder{wan_path_spec({})}.build(make_reno_factory());
        wan->start_flow(0, 0_s);
        wan->run_until(3_s);
        acked[i] = wan->sender(0).bytes_acked();
      },
      6);
  for (std::size_t i = 1; i < acked.size(); ++i) EXPECT_EQ(acked[i], acked[0]);
  EXPECT_GT(acked[0], 0u);
}

TEST(TuningTest, SimInLoopZieglerNicholsFindsGains) {
  TuneOptions opt;
  opt.duration = 10_s;
  opt.tuner.kp_initial = 0.01;
  opt.tuner.kp_max = 100.0;
  opt.tuner.bisection_steps = 4;
  const auto result = tune_restricted_slow_start(opt);
  ASSERT_TRUE(result.has_value());
  EXPECT_GT(result->kc, 0.0);
  EXPECT_GT(result->tc, 0.0);
  EXPECT_LT(result->tc, 10.0);
  const auto gains = result->paper_rule();
  EXPECT_NEAR(gains.kp, 0.33 * result->kc, 1e-9);
  EXPECT_NEAR(gains.ti, 0.5 * result->tc, 1e-9);
  EXPECT_NEAR(gains.td, 0.33 * result->tc, 1e-9);
}

}  // namespace
}  // namespace rss::scenario
