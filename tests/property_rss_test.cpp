// Property suite for the paper's contribution: across a grid of path and
// controller parameters, Restricted Slow-Start must keep its core promise:
//
//   R1 (no stalls)    zero send-stalls and zero IFQ tail drops
//   R2 (containment)  peak IFQ occupancy < capacity
//   R3 (utilization)  goodput at least that of standard TCP on the same
//                     path (RSS never loses)
//   R4 (restriction)  per-ACK growth never exceeds 1 MSS (it is a
//                     *restricted* slow start)

#include <gtest/gtest.h>

#include <string>

#include "metrics/timeseries.hpp"
#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/presets.hpp"
#include "workload/apps.hpp"

namespace rss::core {
namespace {

using namespace rss::sim::literals;
using scenario::ScenarioBuilder;
using scenario::wan_path_spec;
using scenario::WanPathConfig;

struct RssCase {
  std::size_t ifq;
  std::int64_t rtt_ms;
  double setpoint;
  std::int64_t sample_period_ms;  ///< 0 = per-ACK, 10 = kernel jiffy mode
};

class RssGridTest : public ::testing::TestWithParam<RssCase> {
 protected:
  static std::unique_ptr<scenario::Scenario> make(const RssCase& c,
                                                  const scenario::CcFactory& factory) {
    WanPathConfig cfg;
    cfg.enable_web100 = false;
    cfg.sender.trace_cwnd = true;
    cfg.path.ifq_capacity_packets = c.ifq;
    cfg.path.one_way_delay = sim::Time::milliseconds(c.rtt_ms / 2);
    return ScenarioBuilder{wan_path_spec(cfg)}.build(factory);
  }

  static scenario::CcFactory rss_factory(const RssCase& c) {
    // The kernel-timer controller needs the gains tuned for that sampling
    // regime (the per-ACK defaults oscillate under a 10 ms hold).
    RestrictedSlowStart::Options opt = c.sample_period_ms > 0
                                           ? RestrictedSlowStart::kernel_timer_options()
                                           : RestrictedSlowStart::Options{};
    opt.setpoint_fraction = c.setpoint;
    opt.sample_period = sim::Time::milliseconds(c.sample_period_ms);
    return scenario::make_rss_factory(opt);
  }
};

TEST_P(RssGridTest, NoStallsNoDropsContainedQueue) {
  const auto c = GetParam();
  auto wan = make(c, rss_factory(c));
  const net::NetDevice& nic = wan->device("sender", "receiver");
  metrics::TimeSeries ifq{"ifq"};
  wan->simulation().every(10_ms, [&](sim::Time now) {
    ifq.record(now, static_cast<double>(nic.occupancy_packets()));
    return true;
  });
  wan->start_flow(0, 0_s);
  wan->run_until(15_s);

  // R1
  EXPECT_EQ(wan->sender(0).mib().SendStall, 0u) << "send-stalls observed";
  EXPECT_EQ(nic.ifq().stats().dropped, 0u) << "IFQ tail drops observed";
  // R2 — sampled occupancy (includes wire slot) stays within capacity.
  EXPECT_LE(ifq.max_value(), static_cast<double>(c.ifq) + 1.0);
  // Sanity: the transfer actually ran.
  EXPECT_GT(wan->sender(0).bytes_acked(), 1'000'000u);
}

TEST_P(RssGridTest, NeverWorseThanStandardTcp) {
  const auto c = GetParam();
  auto rss_wan = make(c, rss_factory(c));
  rss_wan->start_flow(0, 0_s);
  rss_wan->run_until(15_s);
  auto std_wan = make(c, scenario::make_reno_factory());
  std_wan->start_flow(0, 0_s);
  std_wan->run_until(15_s);
  EXPECT_GE(rss_wan->sender(0).goodput_mbps(0_s, 15_s),
            0.95 * std_wan->sender(0).goodput_mbps(0_s, 15_s));
}

TEST_P(RssGridTest, GrowthNeverExceedsOneMssPerAck) {
  const auto c = GetParam();
  auto wan = make(c, rss_factory(c));
  // cwnd trace records every set_cwnd call; consecutive increases in
  // slow-start must be bounded by MSS (+ epsilon for CA crossover).
  wan->start_flow(0, 0_s);
  wan->run_until(5_s);
  const auto& trace = wan->sender(0).cwnd_trace();
  double prev = 0.0;
  bool first = true;
  for (const auto& s : trace.samples()) {
    if (!first) {
      EXPECT_LE(s.value - prev, 1460.0 + 1e-6) << "at t=" << s.t;
    }
    prev = s.value;
    first = false;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RssGridTest,
    ::testing::Values(RssCase{100, 60, 0.9, 0},    // the paper point
                      RssCase{100, 60, 0.9, 10},   // kernel-timer controller
                      RssCase{50, 60, 0.9, 0},     // small IFQ
                      RssCase{1000, 60, 0.9, 0},   // huge IFQ
                      RssCase{100, 10, 0.9, 0},    // LAN-ish RTT
                      RssCase{100, 200, 0.9, 0},   // very long RTT
                      RssCase{100, 60, 0.5, 0},    // conservative set point
                      RssCase{100, 60, 0.95, 0},   // aggressive set point
                      RssCase{20, 120, 0.9, 0}),   // tiny IFQ + long RTT
    [](const ::testing::TestParamInfo<RssCase>& info) {
      return "ifq" + std::to_string(info.param.ifq) + "_rtt" +
             std::to_string(info.param.rtt_ms) + "_sp" +
             std::to_string(static_cast<int>(info.param.setpoint * 100)) + "_T" +
             std::to_string(info.param.sample_period_ms);
    });

// RSS with cross traffic stealing IFQ capacity: the controller sees the
// combined occupancy and still avoids stalls of its own flow.
TEST(RssRobustness, SurvivesCrossTrafficOnTheSameNic) {
  WanPathConfig cfg;
  cfg.enable_web100 = false;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_rss_factory());
  // ~20 Mbit/s of datagram cross traffic through the same 100 Mbit/s NIC.
  workload::PoissonPacketSource::Options xopt;
  xopt.dst_node = 2;
  xopt.packets_per_second = 1700.0;
  workload::PoissonPacketSource cross{wan->simulation(), wan->node("sender"), xopt};
  wan->start_flow(0, 0_s);
  wan->run_until(20_s);

  EXPECT_EQ(wan->sender(0).mib().SendStall, 0u);
  // TCP cedes bandwidth to the cross traffic but keeps the link busy.
  const double total = wan->sender(0).goodput_mbps(0_s, 20_s) +
                       static_cast<double>(cross.packets_sent()) * 1500 * 8 / 20.0 / 1e6;
  EXPECT_GT(total, 70.0);
}

TEST(RssRobustness, RandomWanLossFallsBackToStockRecovery) {
  WanPathConfig cfg;
  cfg.enable_web100 = false;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_rss_factory());
  wan->device("sender", "receiver").link()->set_loss_rate(0.002, sim::Rng{5});
  wan->start_flow(0, 0_s);
  wan->run_until(20_s);
  EXPECT_GT(wan->sender(0).mib().FastRetran, 0u);
  EXPECT_GT(wan->sender(0).bytes_acked(), 10'000'000u);
}

}  // namespace
}  // namespace rss::core
