// Tests for the era-fidelity TCP options: Linux quickack receiver mode and
// RFC 2861 congestion-window validation after idle, plus the SACK x jitter
// x loss interaction grid.

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

TEST(QuickackTest, AcksEverySegmentEarly) {
  WanPathConfig cfg;
  cfg.enable_web100 = false;
  cfg.receiver.quickack_segments = 1'000'000;  // quickack for the whole run
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_reno_factory());
  wan->start_flow(0, 0_s);
  wan->run_until(3_s);
  // Every data segment produced an immediate ACK.
  EXPECT_GE(wan->receiver(0).acks_sent() + 5, wan->receiver(0).packets_received());
}

TEST(QuickackTest, SpeedsUpEarlySlowStart) {
  auto ramp_time = [](std::uint64_t quickack) {
    WanPathConfig cfg;
    cfg.enable_web100 = false;
    cfg.path.ifq_capacity_packets = 100'000;  // no stalls: isolate the ramp
    cfg.receiver.quickack_segments = quickack;
    cfg.sender.trace_cwnd = true;
    auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_reno_factory());
    wan->start_flow(0, 0_s);
    wan->run_until(5_s);
    // First time cwnd crossed 100 segments.
    for (const auto& s : wan->sender(0).cwnd_trace().samples()) {
      if (s.value >= 100.0 * 1460) return s.t;
    }
    return sim::Time::infinity();
  };
  const sim::Time with = ramp_time(1'000'000);
  const sim::Time without = ramp_time(0);
  EXPECT_LT(with, without) << "quickack must accelerate the exponential phase";
}

TEST(QuickackTest, FirstSegmentsOnlyThenDelayedAcks) {
  WanPathConfig cfg;
  cfg.enable_web100 = false;
  cfg.path.ifq_capacity_packets = 100'000;
  cfg.receiver.quickack_segments = 16;  // Linux-ish initial quickack budget
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_reno_factory());
  wan->start_flow(0, 0_s);
  wan->run_until(5_s);
  // Overall ACK ratio still near 1/2 (delayed) because quickack covered
  // only the first 16 of tens of thousands of segments.
  const double ratio = static_cast<double>(wan->receiver(0).acks_sent()) /
                       static_cast<double>(wan->receiver(0).packets_received());
  EXPECT_LT(ratio, 0.6);
}

TEST(CwndValidationTest, IdleDecaysWindow) {
  WanPathConfig cfg;
  cfg.enable_web100 = false;
  cfg.sender.cwnd_validation = true;
  cfg.sender.trace_cwnd = true;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_reno_factory());
  // Burst, idle 2 s (>> RTO ~200 ms), then burst again.
  wan->simulation().at(0_s, [&] { wan->sender(0).app_write(2'000'000); });
  wan->simulation().at(3_s, [&] { wan->sender(0).app_write(1'000'000); });
  wan->run_until(6_s);

  // At the second burst the window must have decayed well below its value
  // at the end of the first burst.
  const auto& trace = wan->sender(0).cwnd_trace();
  const double before_idle = trace.value_at(1500_ms);
  const double after_idle = trace.value_at(3100_ms);
  EXPECT_LT(after_idle, 0.5 * before_idle);
  EXPECT_GE(after_idle, 2.0 * 1460 - 1);  // floored at the restart window
  // The transfer still completes.
  EXPECT_EQ(wan->receiver(0).bytes_received(), 3'000'000u);
}

TEST(CwndValidationTest, DisabledRestartBurstStallsTheIfq) {
  // Without RFC 2861 the sender blasts its stale full-sized window into
  // the NIC after the idle period — and the IFQ (100 packets) rejects the
  // tail of the burst. Restart-after-idle is thus *another* source of the
  // paper's send-stalls; validation (previous test) removes it.
  auto stalls_with = [](bool validation) {
    WanPathConfig cfg;
    cfg.enable_web100 = false;
    cfg.sender.cwnd_validation = validation;
    auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_reno_factory());
    wan->simulation().at(0_s, [&w = wan] { w->sender(0).app_write(2'000'000); });
    std::uint64_t stalls_before_restart = 0;
    wan->simulation().at(2900_ms, [&] { stalls_before_restart = wan->sender(0).mib().SendStall; });
    wan->simulation().at(3_s, [&w = wan] { w->sender(0).app_write(1'000'000); });
    wan->run_until(6_s);
    return wan->sender(0).mib().SendStall - stalls_before_restart;
  };
  EXPECT_GT(stalls_with(false), 0u);   // stale-window burst overflows
  EXPECT_EQ(stalls_with(true), 0u);    // decayed window restarts cleanly
}

TEST(CwndValidationTest, BulkFlowUnaffected) {
  auto run = [](bool validation) {
    WanPathConfig cfg;
    cfg.enable_web100 = false;
    cfg.sender.cwnd_validation = validation;
    auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_rss_factory());
    wan->start_flow(0, 0_s);
    wan->run_until(10_s);
    return wan->sender(0).bytes_acked();
  };
  EXPECT_EQ(run(true), run(false));  // never idle -> identical
}

// --- SACK x jitter x loss interaction grid ---

struct HarshCase {
  double loss;
  std::int64_t jitter_us;
  bool sack;
};

class HarshPathTest : public ::testing::TestWithParam<HarshCase> {};

TEST_P(HarshPathTest, IntegrityAndLivenessSurviveReorderingPlusLoss) {
  const auto c = GetParam();
  WanPathConfig cfg;
  cfg.enable_web100 = false;
  cfg.path.ifq_capacity_packets = 100'000;
  cfg.sender.enable_sack = c.sack;
  cfg.receiver.enable_sack = c.sack;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_reno_factory());
  net::PointToPointLink& link = *wan->device("sender", "receiver").link();
  if (c.loss > 0) link.set_loss_rate(c.loss, sim::Rng{41});
  if (c.jitter_us > 0) link.set_jitter(sim::Time::microseconds(c.jitter_us), sim::Rng{43});
  wan->start_flow(0, 0_s);
  wan->run_until(12_s);

  // Liveness under combined pathology.
  EXPECT_GT(wan->sender(0).bytes_acked(), 100'000u);
  // Integrity: cumulative ACK never exceeds in-order delivery.
  EXPECT_LE(wan->sender(0).bytes_acked(), wan->receiver(0).bytes_received() + 1460);
  // Reordering must never wedge recovery permanently: not stuck in
  // fast recovery at the end with an empty pipe.
  if (wan->sender(0).in_fast_recovery()) {
    EXPECT_GT(wan->sender(0).bytes_sent(), wan->sender(0).bytes_acked());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HarshPathTest,
    ::testing::Values(HarshCase{0.0, 400, false}, HarshCase{0.0, 400, true},
                      HarshCase{0.01, 0, true}, HarshCase{0.01, 400, false},
                      HarshCase{0.01, 400, true}, HarshCase{0.03, 1000, true}),
    [](const ::testing::TestParamInfo<HarshCase>& info) {
      return std::string("loss") + std::to_string(static_cast<int>(info.param.loss * 1000)) +
             "_jit" + std::to_string(info.param.jitter_us) +
             (info.param.sack ? "_sack" : "_newreno");
    });

}  // namespace
}  // namespace rss::tcp
