// Tests for HighSpeed TCP (RFC 3649) and its composition with Restricted
// Slow-Start.

#include <gtest/gtest.h>

#include "core/highspeed_rss.hpp"
#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/presets.hpp"
#include "tcp/highspeed.hpp"

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
  std::size_t ifq_occ{0};

  [[nodiscard]] double cwnd_bytes() const override { return cwnd; }
  void set_cwnd_bytes(double c) override { cwnd = c; }
  [[nodiscard]] double ssthresh_bytes() const override { return ssthresh; }
  void set_ssthresh_bytes(double s) override { ssthresh = s; }
  [[nodiscard]] std::uint32_t mss() const override { return 1460; }
  [[nodiscard]] std::uint64_t flight_size_bytes() const override { return flight; }
  [[nodiscard]] sim::Time now() const override { return now_v; }
  [[nodiscard]] std::size_t ifq_occupancy_packets() const override { return ifq_occ; }
  [[nodiscard]] std::size_t ifq_capacity_packets() const override { return 100; }
  [[nodiscard]] sim::Time srtt() const override { return 60_ms; }
  sim::Time now_v{sim::Time::zero()};
};

TEST(HighSpeedTest, ResponseFunctionAnchorsFromRfc3649) {
  HighSpeedCongestionControl hs;
  // At and below Low_Window the function must be exactly Reno.
  EXPECT_DOUBLE_EQ(hs.increase_a(10.0), 1.0);
  EXPECT_DOUBLE_EQ(hs.increase_a(38.0), 1.0);
  EXPECT_DOUBLE_EQ(hs.decrease_b(38.0), 0.5);
  // At High_Window the RFC's table gives a(w)=72 (±rounding), b(w)=0.1.
  EXPECT_NEAR(hs.increase_a(83000.0), 72.0, 4.0);
  EXPECT_NEAR(hs.decrease_b(83000.0), 0.1, 1e-9);
  // Monotone in between: a grows, b shrinks.
  EXPECT_GT(hs.increase_a(1000.0), hs.increase_a(100.0));
  EXPECT_LT(hs.decrease_b(1000.0), hs.decrease_b(100.0));
  // Closed-form spot check at w=1058: p ~ 1.9e-5, b ~ 0.327,
  // a = w^2 p 2b/(2-b) ~ 8.3.
  EXPECT_NEAR(hs.increase_a(1058.0), 8.3, 1.0);
  EXPECT_NEAR(hs.decrease_b(1058.0), 0.33, 0.03);
}

TEST(HighSpeedTest, CongestionAvoidanceSuperLinearAtLargeWindow) {
  MockHost host;
  HighSpeedCongestionControl hs;
  hs.attach(host);
  host.cwnd = 2000.0 * 1460;
  host.ssthresh = 100.0 * 1460;  // CA
  const double before = host.cwnd;
  for (int i = 0; i < 2000; ++i) hs.on_ack(1460);  // one RTT worth of ACKs
  const double gained_segments = (host.cwnd - before) / 1460.0;
  EXPECT_GT(gained_segments, 5.0) << "should outpace Reno's 1 segment/RTT";
}

TEST(HighSpeedTest, RenoRegimeBelowLowWindow) {
  MockHost host;
  HighSpeedCongestionControl hs;
  hs.attach(host);
  host.cwnd = 20.0 * 1460;
  host.ssthresh = 10.0 * 1460;
  const double before = host.cwnd;
  for (int i = 0; i < 20; ++i) hs.on_ack(1460);
  // ~1 MSS per window of ACKs, i.e. Reno (small shortfall because w grows
  // within the round).
  EXPECT_NEAR(host.cwnd, before + 1460.0, 40.0);
}

TEST(HighSpeedTest, GentlerDecreaseAtLargeWindow) {
  MockHost host;
  HighSpeedCongestionControl hs;
  hs.attach(host);
  host.flight = static_cast<std::uint64_t>(2000.0 * 1460);
  hs.on_fast_retransmit();
  // b(2000) ~ 0.29: ssthresh ~ 0.71 * flight, well above Reno's half.
  EXPECT_GT(host.ssthresh, 0.6 * 2000.0 * 1460);
  EXPECT_LT(host.ssthresh, 0.8 * 2000.0 * 1460);
}

TEST(HighSpeedRssTest, DelegatesByPhase) {
  MockHost host;
  core::HighSpeedRestrictedSlowStart hybrid;
  hybrid.attach(host);
  EXPECT_EQ(hybrid.name(), "highspeed-rss");

  // Slow-start with empty IFQ: the PID saturates at +1 MSS (RSS behaviour).
  host.ifq_occ = 0;
  host.now_v = host.now_v + 1_ms;
  double before = host.cwnd;
  hybrid.on_ack(1460);
  EXPECT_DOUBLE_EQ(host.cwnd, before + 1460.0);

  // Slow-start near the set point: growth restricted (not Reno +1).
  host.ifq_occ = 90;
  host.now_v = host.now_v + 1_ms;
  before = host.cwnd;
  hybrid.on_ack(1460);
  EXPECT_LT(host.cwnd - before, 1460.0);

  // Congestion avoidance at a large window: HSTCP super-linear growth.
  host.cwnd = 2000.0 * 1460;
  host.ssthresh = 100.0 * 1460;
  host.ifq_occ = 0;
  before = host.cwnd;
  for (int i = 0; i < 2000; ++i) {
    host.now_v = host.now_v + sim::Time::microseconds(30);
    hybrid.on_ack(1460);
  }
  EXPECT_GT((host.cwnd - before) / 1460.0, 5.0);
}

TEST(HighSpeedRssTest, EndToEndStallFreeOnPaperPath) {
  WanPathConfig cfg;
  cfg.enable_web100 = false;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_highspeed_rss_factory());
  wan->start_flow(0, 0_s);
  wan->run_until(25_s);
  EXPECT_EQ(wan->sender(0).mib().SendStall, 0u);
  EXPECT_GT(wan->sender(0).goodput_mbps(0_s, 25_s), 85.0);
}

TEST(HighSpeedRssTest, SustainsLargerWindowUnderContinuousLoss) {
  // Under a steady random loss rate p the response functions predict the
  // sustained window: Reno ~ 1.2/sqrt(p) segments, HSTCP substantially
  // more. On a 120 ms-RTT path at p = 2e-4: Reno ~ 85 segments (~8 Mbit/s),
  // HSTCP ~ 150 (~15 Mbit/s). Require a clear multiplicative win.
  auto run = [](const scenario::CcFactory& f) {
    WanPathConfig cfg;
    cfg.enable_web100 = false;
    cfg.path.one_way_delay = 60_ms;  // RTT 120 ms, BDP ~1000 pkts
    cfg.path.ifq_capacity_packets = 4000;
    auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(f);
    wan->device("sender", "receiver").link()->set_loss_rate(2e-4, sim::Rng{3});
    wan->start_flow(0, 0_s);
    wan->run_until(30_s);
    return wan->sender(0).goodput_mbps(0_s, 30_s);
  };
  const double hybrid = run(scenario::make_highspeed_rss_factory());
  const double reno = run(scenario::make_reno_factory());
  EXPECT_GT(hybrid, 1.2 * reno);
}

TEST(LinkJitterTest, HeavyReorderingDegradesButNeverWedgesTcp) {
  // 5 ms of jitter against a 120 us serialization time reorders packets
  // constantly; spurious dupack fast-retransmits hammer the window (a
  // classic, real TCP pathology). Robustness claim: the connection keeps
  // moving and never loses data — not that it stays fast.
  WanPathConfig cfg;
  cfg.enable_web100 = false;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_reno_factory());
  wan->device("sender", "receiver").link()->set_jitter(5_ms, sim::Rng{13});
  wan->start_flow(0, 0_s);
  wan->run_until(10_s);
  EXPECT_GT(wan->receiver(0).out_of_order_packets(), 0u);
  EXPECT_GT(wan->sender(0).mib().FastRetran, 0u);  // spurious retransmits
  EXPECT_GT(wan->sender(0).bytes_acked(), 500'000u);
  EXPECT_LE(wan->sender(0).bytes_acked(), wan->receiver(0).bytes_received() + 1460);
}

TEST(LinkJitterTest, SubSerializationJitterIsHarmless) {
  // Jitter below one serialization time cannot reorder; throughput stays
  // at line rate.
  WanPathConfig cfg;
  cfg.enable_web100 = false;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_rss_factory());
  wan->device("sender", "receiver").link()->set_jitter(sim::Time::microseconds(50), sim::Rng{13});
  wan->start_flow(0, 0_s);
  wan->run_until(10_s);
  EXPECT_EQ(wan->receiver(0).out_of_order_packets(), 0u);
  EXPECT_GT(wan->sender(0).goodput_mbps(0_s, 10_s), 80.0);
}

TEST(LinkJitterTest, ValidatesParameter) {
  sim::Simulation s;
  net::PointToPointLink link{s, 1_ms};
  EXPECT_THROW(link.set_jitter(sim::Time::zero() - 1_ms, sim::Rng{1}), std::invalid_argument);
}

}  // namespace
}  // namespace rss::tcp
