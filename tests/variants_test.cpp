// Tests for the additional congestion-control variants (Tahoe, Vegas) and
// the name-based factory registry.

#include <gtest/gtest.h>

#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/presets.hpp"
#include "tcp/tahoe.hpp"
#include "tcp/vegas.hpp"

namespace rss::tcp {
namespace {

using namespace rss::sim::literals;
using scenario::ScenarioBuilder;
using scenario::wan_path_spec;
using scenario::WanPathConfig;

class MockHost final : public CcHost {
 public:
  double cwnd{2 * 1460.0};
  double ssthresh{1e9};
  std::uint64_t flight{0};
  sim::Time now_v{sim::Time::zero()};
  sim::Time srtt_v{sim::Time::zero()};

  [[nodiscard]] double cwnd_bytes() const override { return cwnd; }
  void set_cwnd_bytes(double c) override { cwnd = c; }
  [[nodiscard]] double ssthresh_bytes() const override { return ssthresh; }
  void set_ssthresh_bytes(double s) override { ssthresh = s; }
  [[nodiscard]] std::uint32_t mss() const override { return 1460; }
  [[nodiscard]] std::uint64_t flight_size_bytes() const override { return flight; }
  [[nodiscard]] sim::Time now() const override { return now_v; }
  [[nodiscard]] std::size_t ifq_occupancy_packets() const override { return 0; }
  [[nodiscard]] std::size_t ifq_capacity_packets() const override { return 100; }
  [[nodiscard]] sim::Time srtt() const override { return srtt_v; }
};

TEST(TahoeTest, FastRetransmitCollapsesToOneMss) {
  MockHost host;
  TahoeCongestionControl tahoe;
  tahoe.attach(host);
  host.cwnd = 100 * 1460.0;
  host.flight = 80 * 1460;
  tahoe.on_fast_retransmit();
  EXPECT_DOUBLE_EQ(host.cwnd, 1460.0);
  EXPECT_DOUBLE_EQ(host.ssthresh, 40.0 * 1460.0);
  EXPECT_EQ(tahoe.name(), "tahoe");
  EXPECT_TRUE(tahoe.in_slow_start());  // restarts slow-start
}

TEST(TahoeTest, UnderperformsRenoUnderLoss) {
  auto run = [](const scenario::CcFactory& f) {
    WanPathConfig cfg;
    cfg.enable_web100 = false;
    cfg.path.ifq_capacity_packets = 100'000;
    auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(f);
    wan->device("sender", "receiver").link()->set_loss_rate(0.003, sim::Rng{17});
    wan->start_flow(0, 0_s);
    wan->run_until(20_s);
    return wan->sender(0).goodput_mbps(0_s, 20_s);
  };
  const double tahoe = run(scenario::make_tahoe_factory());
  const double reno = run(scenario::make_reno_factory());
  EXPECT_LT(tahoe, reno) << "fast recovery must beat slow-start restarts";
  EXPECT_GT(tahoe, 1.0);
}

TEST(VegasTest, SlowStartDoublesEveryOtherRtt) {
  MockHost host;
  VegasCongestionControl vegas;
  vegas.attach(host);
  host.srtt_v = 60_ms;  // base RTT == current RTT: no queueing signal
  const double before = host.cwnd;
  vegas.on_ack(1460);
  vegas.on_ack(1460);
  // Two ACKs -> one increment (half the stock slow-start rate).
  EXPECT_DOUBLE_EQ(host.cwnd, before + 1460.0);
}

TEST(VegasTest, ExitsSlowStartWhenQueueBuilds) {
  MockHost host;
  VegasCongestionControl vegas;
  vegas.attach(host);
  host.cwnd = 100 * 1460.0;
  host.srtt_v = 60_ms;
  vegas.on_ack(1460);  // records base RTT = 60 ms
  ASSERT_TRUE(vegas.in_slow_start());
  // RTT inflates 30%: diff = cwnd*(1 - 60/78) ~ 23 segments >> gamma.
  host.srtt_v = 78_ms;
  vegas.on_ack(1460);
  EXPECT_FALSE(vegas.in_slow_start());
  EXPECT_DOUBLE_EQ(host.ssthresh, host.cwnd);
}

TEST(VegasTest, HoldsInsideAlphaBetaBand) {
  MockHost host;
  VegasCongestionControl vegas;
  vegas.attach(host);
  host.cwnd = 100 * 1460.0;
  host.ssthresh = 50 * 1460.0;  // CA
  host.srtt_v = 60_ms;
  vegas.on_ack(1460);  // base = 60 ms
  // Pick RTT so diff lands between alpha (2) and beta (4): diff = cwnd_seg *
  // (1 - base/rtt) * ... choose rtt = 61.85 ms -> diff ~ 3.
  host.srtt_v = sim::Time::microseconds(61'850);
  const double before = host.cwnd;
  vegas.on_ack(1460);
  EXPECT_NEAR(host.cwnd, before, 1.0);
}

TEST(VegasTest, BacksOffAboveBeta) {
  MockHost host;
  VegasCongestionControl vegas;
  vegas.attach(host);
  host.cwnd = 100 * 1460.0;
  host.ssthresh = 50 * 1460.0;
  host.srtt_v = 60_ms;
  vegas.on_ack(1460);
  host.srtt_v = 70_ms;  // diff ~ 100*(1-6/7) ~ 14 > beta
  const double before = host.cwnd;
  vegas.on_ack(1460);
  EXPECT_LT(host.cwnd, before);
}

TEST(VegasTest, AvoidsLossOnThePaperPathButSlower) {
  // Vegas throttles on RTT inflation, so it too avoids IFQ overflow — at
  // the cost of hovering lower than RSS (it backs off at the *path* queue,
  // not at 90% of the local IFQ).
  WanPathConfig cfg;
  cfg.enable_web100 = false;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_vegas_factory());
  wan->start_flow(0, 0_s);
  wan->run_until(25_s);
  EXPECT_LE(wan->sender(0).mib().SendStall, 1u);
  EXPECT_GT(wan->sender(0).goodput_mbps(0_s, 25_s), 40.0);
}

TEST(FactoryRegistryTest, NamesResolveAndMatchAlgorithms) {
  for (const auto& name : scenario::variant_names()) {
    WanPathConfig cfg;
    cfg.enable_web100 = false;
    auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::factory_by_name(name));
    EXPECT_EQ(wan->sender(0).congestion_control().name(), name);
  }
  EXPECT_THROW(scenario::factory_by_name("bbr"), std::invalid_argument);
}

TEST(FactoryRegistryTest, AliasesWork) {
  EXPECT_NO_THROW(scenario::factory_by_name("rss"));
  EXPECT_NO_THROW(scenario::factory_by_name("standard"));
  EXPECT_NO_THROW(scenario::factory_by_name("lss"));
}

}  // namespace
}  // namespace rss::tcp
