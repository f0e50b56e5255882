#include "core/restricted_slow_start.hpp"

#include <gtest/gtest.h>

#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/presets.hpp"

namespace rss::core {
namespace {

using namespace rss::sim::literals;
using scenario::ScenarioBuilder;
using scenario::wan_path_spec;
using scenario::WanPathConfig;

/// Mock host with a scriptable IFQ occupancy.
class MockHost final : public tcp::CcHost {
 public:
  double cwnd{2 * 1460.0};
  double ssthresh{1e9};
  std::uint64_t flight{0};
  sim::Time now_v{sim::Time::zero()};
  std::size_t ifq_occ{0};
  std::size_t ifq_cap{100};

  [[nodiscard]] double cwnd_bytes() const override { return cwnd; }
  void set_cwnd_bytes(double c) override { cwnd = c; }
  [[nodiscard]] double ssthresh_bytes() const override { return ssthresh; }
  void set_ssthresh_bytes(double s) override { ssthresh = s; }
  [[nodiscard]] std::uint32_t mss() const override { return 1460; }
  [[nodiscard]] std::uint64_t flight_size_bytes() const override { return flight; }
  [[nodiscard]] sim::Time now() const override { return now_v; }
  [[nodiscard]] std::size_t ifq_occupancy_packets() const override { return ifq_occ; }
  [[nodiscard]] std::size_t ifq_capacity_packets() const override { return ifq_cap; }
  [[nodiscard]] sim::Time srtt() const override { return 60_ms; }
};

TEST(RestrictedSlowStartTest, SetpointIsNinetyPercentOfIfq) {
  MockHost host;
  RestrictedSlowStart rss;
  rss.attach(host);
  EXPECT_DOUBLE_EQ(rss.setpoint_packets(), 90.0);
  EXPECT_EQ(rss.name(), "restricted-slow-start");
}

TEST(RestrictedSlowStartTest, EmptyQueueGrowsAtFullSlowStartRate) {
  MockHost host;
  RestrictedSlowStart rss;
  rss.attach(host);
  host.ifq_occ = 0;  // error = +90: controller saturates at +1 MSS/ACK
  const double before = host.cwnd;
  host.now_v += 1_ms;
  rss.on_ack(1460);
  EXPECT_DOUBLE_EQ(host.cwnd, before + 1460.0);
  EXPECT_DOUBLE_EQ(rss.last_increment_mss(), 1.0);
}

TEST(RestrictedSlowStartTest, NeverExceedsStockSlowStartRate) {
  MockHost host;
  RestrictedSlowStart rss;
  rss.attach(host);
  for (int i = 0; i < 50; ++i) {
    host.now_v += 1_ms;
    const double before = host.cwnd;
    rss.on_ack(1460);
    EXPECT_LE(host.cwnd - before, 1460.0 + 1e-9);
  }
}

TEST(RestrictedSlowStartTest, GrowthStopsNearSetpoint) {
  MockHost host;
  RestrictedSlowStart::Options opt;
  opt.gains = control::PidGains{0.12, 0.0, 0.0};  // P-only for determinism
  RestrictedSlowStart rss{opt};
  rss.attach(host);
  host.ifq_occ = 90;  // exactly at set point: error = 0
  host.now_v += 1_ms;
  const double before = host.cwnd;
  rss.on_ack(1460);
  EXPECT_NEAR(host.cwnd, before, 1.0);
}

TEST(RestrictedSlowStartTest, OvershootTrimsWindow) {
  MockHost host;
  RestrictedSlowStart::Options opt;
  opt.gains = control::PidGains{0.12, 0.0, 0.0};
  RestrictedSlowStart rss{opt};
  rss.attach(host);
  host.cwnd = 100 * 1460.0;
  host.ifq_occ = 100;  // full queue: error = -10 -> negative increment
  host.now_v += 1_ms;
  const double before = host.cwnd;
  rss.on_ack(1460);
  EXPECT_LT(host.cwnd, before);
  EXPECT_GE(host.cwnd, before - 1460.0);  // bounded by -1 MSS/ACK
}

TEST(RestrictedSlowStartTest, TrimCanBeDisabled) {
  MockHost host;
  RestrictedSlowStart::Options opt;
  opt.min_increment_mss = 0.0;
  RestrictedSlowStart rss{opt};
  rss.attach(host);
  host.cwnd = 100 * 1460.0;
  host.ifq_occ = 100;
  host.now_v += 1_ms;
  const double before = host.cwnd;
  rss.on_ack(1460);
  EXPECT_DOUBLE_EQ(host.cwnd, before);
}

TEST(RestrictedSlowStartTest, DelayedAckScalingHalvesIncrement) {
  MockHost host;
  RestrictedSlowStart rss;
  rss.attach(host);
  host.ifq_occ = 0;
  host.now_v += 1_ms;
  const double before = host.cwnd;
  rss.on_ack(2 * 1460);  // delayed ACK covering 2 segments
  // ack_scale = min(2920,1460)/1460 = 1: increment still exactly 1 MSS.
  EXPECT_DOUBLE_EQ(host.cwnd, before + 1460.0);
}

TEST(RestrictedSlowStartTest, CongestionAvoidanceIsStockReno) {
  MockHost host;
  RestrictedSlowStart rss;
  rss.attach(host);
  host.cwnd = 100 * 1460.0;
  host.ssthresh = 50 * 1460.0;  // CA
  host.ifq_occ = 0;
  host.now_v += 1_ms;
  const double before = host.cwnd;
  rss.on_ack(1460);
  EXPECT_NEAR(host.cwnd, before + 1460.0 / 100.0, 0.5);
}

TEST(RestrictedSlowStartTest, LocalCongestionResetsIntegral) {
  MockHost host;
  RestrictedSlowStart::Options opt;
  opt.gains = control::PidGains{0.12, 0.3, 0.0};
  RestrictedSlowStart rss{opt};
  rss.attach(host);
  host.ifq_occ = 88;  // small positive error so the output is unsaturated
  for (int i = 0; i < 20; ++i) {
    host.now_v += 10_ms;
    rss.on_ack(1460);
  }
  EXPECT_GT(rss.pid().integral(), 0.0);
  host.now_v += 1_s;
  EXPECT_TRUE(rss.on_local_congestion());
  EXPECT_DOUBLE_EQ(rss.pid().integral(), 0.0);
}

// ----- End-to-end behaviour on the paper's path -----

TEST(RestrictedSlowStartE2ETest, EliminatesSendStalls) {
  WanPathConfig cfg;
  cfg.sender.trace_stalls = true;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_rss_factory());
  wan->start_flow(0, sim::Time::zero());
  wan->run_until(25_s);
  EXPECT_EQ(wan->sender(0).mib().SendStall, 0u);
}

TEST(RestrictedSlowStartE2ETest, HoldsIfqNearSetpoint) {
  WanPathConfig cfg;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_rss_factory());
  const net::NetDevice& nic = wan->device("sender", "receiver");
  metrics::TimeSeries occupancy{"ifq"};
  wan->simulation().every(50_ms, [&](sim::Time now) {
    occupancy.record(now, static_cast<double>(nic.occupancy_packets()));
    return true;
  });
  wan->start_flow(0, sim::Time::zero());
  wan->run_until(20_s);
  // After convergence (last 10 s) occupancy must sit near 90% of 100.
  const double avg = occupancy.time_weighted_mean(10_s, 20_s);
  EXPECT_GT(avg, 60.0);
  EXPECT_LE(avg, 100.0);
  // And never overflow: peak below capacity (no tail drops at the IFQ).
  EXPECT_EQ(nic.ifq().stats().dropped, 0u);
}

TEST(RestrictedSlowStartE2ETest, OutperformsStandardTcpOnPaperPath) {
  auto run = [](const scenario::CcFactory& f) {
    auto wan = ScenarioBuilder{wan_path_spec({})}.build(f);
    wan->start_flow(0, sim::Time::zero());
    wan->run_until(25_s);
    return wan->sender(0).goodput_mbps(sim::Time::zero(), 25_s);
  };
  const double standard = run(scenario::make_reno_factory());
  const double restricted = run(scenario::make_rss_factory());
  // The paper reports ~40% improvement; require a substantial win without
  // pinning the exact factor.
  EXPECT_GT(restricted, 1.2 * standard);
  EXPECT_LE(restricted, 100.0);
}

TEST(RestrictedSlowStartE2ETest, NearLineRateUtilization) {
  auto wan = ScenarioBuilder{wan_path_spec({})}.build(scenario::make_rss_factory());
  wan->start_flow(0, sim::Time::zero());
  wan->run_until(25_s);
  EXPECT_GT(wan->sender(0).goodput_mbps(sim::Time::zero(), 25_s), 80.0);
}

TEST(RestrictedSlowStartE2ETest, SetpointFractionRespected) {
  for (const double frac : {0.5, 0.7, 0.9}) {
    RestrictedSlowStart::Options opt;
    opt.setpoint_fraction = frac;
    auto wan = ScenarioBuilder{wan_path_spec({})}.build(scenario::make_rss_factory(opt));
    const net::NetDevice& nic = wan->device("sender", "receiver");
    metrics::TimeSeries occupancy{"ifq"};
    wan->simulation().every(50_ms, [&](sim::Time now) {
      occupancy.record(now, static_cast<double>(nic.occupancy_packets()));
      return true;
    });
    wan->start_flow(0, sim::Time::zero());
    wan->run_until(20_s);
    const double avg = occupancy.time_weighted_mean(10_s, 20_s);
    EXPECT_NEAR(avg, frac * 100.0, 30.0) << "setpoint fraction " << frac;
  }
}

}  // namespace
}  // namespace rss::core
