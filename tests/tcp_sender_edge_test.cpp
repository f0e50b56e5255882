// Focused edge-case tests for the TcpSender state machine: stall-retry
// with an empty pipe, RTO backoff, go-back-N, ACK pathologies, and flow
// control by the advertised window.

#include <gtest/gtest.h>

#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/presets.hpp"
#include "workload/apps.hpp"

namespace rss::tcp {
namespace {

using namespace rss::sim::literals;
using scenario::ScenarioBuilder;
using scenario::wan_path_spec;
using scenario::WanPathConfig;

TEST(TcpSenderEdgeTest, FirstSendStalledWithEmptyPipeRetriesViaTimer) {
  // Fill the IFQ with cross traffic *before* TCP sends its first byte: the
  // very first segment is rejected with nothing in flight, so no ACK will
  // ever clock a retry — the stall-retry timer must.
  WanPathConfig cfg;
  cfg.enable_web100 = false;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_reno_factory());

  // Saturate the NIC: 200 Mbit/s offered into 100 Mbit/s for 0.5 s.
  workload::PoissonPacketSource::Options xopt;
  xopt.dst_node = 2;
  xopt.packets_per_second = 17'000.0;
  xopt.stop = 500_ms;
  workload::PoissonPacketSource cross{wan->simulation(), wan->node("sender"), xopt};

  // Start TCP at 100 ms, well inside the saturation window.
  wan->simulation().at(100_ms, [&] { wan->sender(0).set_unlimited(true); });
  wan->run_until(5_s);

  EXPECT_GT(wan->sender(0).mib().SendStall, 0u) << "setup failed to provoke a stall";
  // Despite the initial rejection, the transfer got going.
  EXPECT_GT(wan->sender(0).bytes_acked(), 1'000'000u);
}

TEST(TcpSenderEdgeTest, TotalBlackoutBacksOffExponentially) {
  // 100% loss after startup: every retransmission times out; Timeouts must
  // accumulate slowly (backoff doubling), not once per base RTO.
  WanPathConfig cfg;
  cfg.enable_web100 = false;
  cfg.path.ifq_capacity_packets = 10'000;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_reno_factory());
  wan->simulation().at(0_s, [&] { wan->sender(0).set_unlimited(true); });
  // Let it establish, then black out.
  net::PointToPointLink& link = *wan->device("sender", "receiver").link();
  wan->simulation().at(2_s, [&] { link.set_loss_rate(0.999999, sim::Rng{1}); });
  wan->run_until(62_s);

  const auto timeouts = wan->sender(0).mib().Timeouts;
  EXPECT_GE(timeouts, 3u);
  // 60 s of blackout with doubling from ~0.2 s: 0.2+0.4+...+51.2 ~ 9 shots,
  // plus the 60 s cap. Without backoff we would see hundreds.
  EXPECT_LE(timeouts, 12u);
  EXPECT_GT(wan->sender(0).rtt_estimator().backoff_shift(), 2);
}

// Consecutive RTOs on a black-holed path. Once the blackout has drained the
// pipe nothing is ever ACKed again, so after the first timeout the k-th
// next one fires min(rto * 2^k, max_rto) after the one before it, with rto
// the un-backed-off timeout; Timeouts counts each one and CurRTO reports the
// backed-off value, saturating at max_rto.
TEST(TcpSenderEdgeTest, ConsecutiveTimeoutsDoubleThenSaturateAtMaxRto) {
  WanPathConfig cfg;
  cfg.enable_web100 = false;
  cfg.path.ifq_capacity_packets = 10'000;
  cfg.sender.rtt.max_rto = 3_s;
  cfg.sender.trace_cwnd = true;  // each Reno RTO collapses cwnd to 1 MSS, at its exact time
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_reno_factory());
  const TcpSender& sender = wan->sender(0);
  sim::Simulation& sim = wan->simulation();
  sim.at(0_s, [&] { wan->sender(0).set_unlimited(true); });
  net::PointToPointLink& link = *wan->device("sender", "receiver").link();
  std::uint64_t timeouts_before = 0;
  sim.at(2_s, [&] {
    timeouts_before = sender.mib().Timeouts;
    link.set_loss_rate(0.999999, sim::Rng{1});
  });
  // CurRTO as each timeout leaves it (a 1 ms poll; timeouts are >= 200 ms apart).
  std::vector<sim::Time> cur_rto;
  std::uint64_t seen = 0;
  sim.every(1_ms, [&](sim::Time now) {
    if (now > 2_s && sender.mib().Timeouts != seen) cur_rto.push_back(sender.mib().CurRTO);
    seen = sender.mib().Timeouts;
    return true;
  });
  wan->run_until(15_s);

  std::vector<sim::Time> fired;
  for (const auto& sample : sender.cwnd_trace().samples()) {
    if (sample.t > 2_s && sample.value == static_cast<double>(sender.mss()))
      fired.push_back(sample.t);
  }
  RttEstimator unbacked = sender.rtt_estimator();
  unbacked.reset_backoff();
  const sim::Time rto = unbacked.rto();
  const sim::Time max_rto = 3_s;

  ASSERT_GE(fired.size(), 6u);
  EXPECT_EQ(sender.mib().Timeouts - timeouts_before, fired.size());
  ASSERT_EQ(cur_rto.size(), fired.size());
  std::size_t saturated = 0;
  for (std::size_t k = 1; k <= fired.size(); ++k) {
    const sim::Time backed_off = std::min(rto * (std::int64_t{1} << k), max_rto);
    EXPECT_EQ(cur_rto[k - 1], backed_off) << "CurRTO after timeout " << k;
    if (k < fired.size()) {
      EXPECT_EQ(fired[k] - fired[k - 1], backed_off) << "gap after timeout " << k;
    }
    saturated += backed_off == max_rto;
  }
  EXPECT_GE(saturated, 3u) << "the run must reach the max_rto ceiling";
  EXPECT_EQ(sender.mib().CurRTO, max_rto);
}

TEST(TcpSenderEdgeTest, RecoversAfterBlackoutEnds) {
  WanPathConfig cfg;
  cfg.enable_web100 = false;
  cfg.path.ifq_capacity_packets = 10'000;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_reno_factory());
  wan->simulation().at(0_s, [&] { wan->sender(0).set_unlimited(true); });
  net::PointToPointLink& link = *wan->device("sender", "receiver").link();
  wan->simulation().at(2_s, [&] { link.set_loss_rate(0.999999, sim::Rng{1}); });
  wan->simulation().at(4_s, [&] { link.set_loss_rate(0.0, sim::Rng{1}); });
  wan->run_until(20_s);

  const std::uint64_t acked_at_blackout = 2 * 12'500'000 / 2;  // rough bound
  EXPECT_GT(wan->sender(0).bytes_acked(), acked_at_blackout);
  EXPECT_GT(wan->sender(0).mib().Timeouts, 0u);
  // After the blackout the flow resumes. Repeated RTOs legitimately
  // collapse ssthresh to 2 MSS, so the post-blackout climb is congestion
  // avoidance from scratch — expect steady progress, not full line rate.
  const double avg_mbps = static_cast<double>(wan->sender(0).bytes_acked()) * 8 / 18.0 / 1e6;
  EXPECT_GT(avg_mbps, 10.0);
}

TEST(TcpSenderEdgeTest, AdvertisedWindowLimitsFlight) {
  WanPathConfig cfg;
  cfg.enable_web100 = false;
  cfg.receiver.advertised_window = 64 * 1460;  // 64 segments
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_reno_factory());
  wan->start_flow(0, 0_s);
  wan->run_until(10_s);
  // Goodput capped at rwnd/RTT = 64*1460*8/0.06 ~ 12.5 Mbit/s.
  const double goodput = wan->sender(0).goodput_mbps(0_s, 10_s);
  EXPECT_LT(goodput, 14.0);
  EXPECT_GT(goodput, 8.0);
  EXPECT_EQ(wan->sender(0).mib().SendStall, 0u);  // flow control, not stalls
}

TEST(TcpSenderEdgeTest, AppLimitedTrickleNeverStalls) {
  WanPathConfig cfg;
  cfg.enable_web100 = false;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_reno_factory());
  workload::OnOffApp::Options opt;
  opt.on_duration = 100_ms;
  opt.off_duration = 400_ms;
  opt.rate = net::DataRate::mbps(2);
  workload::OnOffApp app{wan->simulation(), wan->sender(0), opt};
  wan->run_until(10_s);
  EXPECT_EQ(wan->sender(0).mib().SendStall, 0u);
  // 2 Mbit/s x 100 ms bursts every 500 ms over 10 s ~ 0.5 MB offered.
  EXPECT_GT(wan->receiver(0).bytes_received(), 400'000u);
  // Everything offered was delivered (app-limited, lossless), modulo the
  // final burst still in flight at the cutoff.
  EXPECT_NEAR(static_cast<double>(wan->receiver(0).bytes_received()),
              static_cast<double>(app.bytes_offered()), 30'000.0);
}

TEST(TcpSenderEdgeTest, ConstructionValidation) {
  WanPathConfig cfg;
  cfg.enable_web100 = false;
  const ScenarioBuilder builder{wan_path_spec(cfg)};
  EXPECT_THROW((void)builder.build(scenario::CcFactory{}), std::invalid_argument);
  EXPECT_THROW(
      (void)builder.build([] { return std::unique_ptr<CongestionControl>{}; }),
      std::invalid_argument);
}

TEST(TcpSenderEdgeTest, ZeroLengthAppWriteIsNoop) {
  WanPathConfig cfg;
  cfg.enable_web100 = false;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_reno_factory());
  wan->sender(0).app_write(0);
  wan->run_until(1_s);
  EXPECT_EQ(wan->sender(0).bytes_sent(), 0u);
  EXPECT_EQ(wan->receiver(0).packets_received(), 0u);
}

TEST(TcpSenderEdgeTest, SubMssTailIsDelivered) {
  WanPathConfig cfg;
  cfg.enable_web100 = false;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_reno_factory());
  wan->sender(0).app_write(1460 * 3 + 123);  // three full segments + tail
  wan->run_until(5_s);
  EXPECT_EQ(wan->receiver(0).bytes_received(), 1460u * 3 + 123);
  EXPECT_EQ(wan->sender(0).bytes_acked(), 1460u * 3 + 123);
}

}  // namespace
}  // namespace rss::tcp
