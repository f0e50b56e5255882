// Tests for SACK (RFC 2018 blocks + RFC 6675-lite pipe recovery).

#include <gtest/gtest.h>

#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/presets.hpp"

namespace rss::tcp {
namespace {

using namespace rss::sim::literals;
using scenario::ScenarioBuilder;
using scenario::wan_path_spec;
using scenario::WanPathConfig;

std::unique_ptr<scenario::Scenario> make_sack_path(double loss, std::uint64_t loss_seed = 7,
                                        bool sack = true) {
  WanPathConfig cfg;
  cfg.enable_web100 = false;
  cfg.path.ifq_capacity_packets = 100'000;  // isolate network loss from stalls
  cfg.sender.enable_sack = sack;
  cfg.receiver.enable_sack = sack;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_reno_factory());
  if (loss > 0.0)
    wan->device("sender", "receiver").link()->set_loss_rate(loss, sim::Rng{loss_seed});
  return wan;
}

TEST(SackTest, LosslessPathNeverEmitsBlocks) {
  auto wan = make_sack_path(0.0);
  // No out-of-order data at the receiver means no blocks could have been
  // generated, and the sender's scoreboard must stay empty.
  wan->start_flow(0, 0_s);
  wan->run_until(5_s);
  EXPECT_EQ(wan->receiver(0).out_of_order_packets(), 0u);
  EXPECT_EQ(wan->sender(0).sacked_bytes(), 0u);
}

TEST(SackTest, IntegrityUnderLoss) {
  auto wan = make_sack_path(0.02);
  wan->start_flow(0, 0_s);
  wan->run_until(15_s);
  const auto& s = wan->sender(0);
  const auto& r = wan->receiver(0);
  EXPECT_GT(s.bytes_acked(), 1'000'000u);
  EXPECT_LE(s.bytes_acked(), r.bytes_received() + 1460);
  EXPECT_GT(s.mib().FastRetran, 0u);
}

TEST(SackTest, BeatsNewRenoAfterLossBurst) {
  // A 100 ms burst of heavy loss punches many holes into one window.
  // NewReno repairs one hole per RTT (dozens of RTTs at 60 ms); SACK
  // repairs them within a couple of RTTs. Aggregate goodput over the run
  // must reflect that.
  auto run = [](bool sack) {
    auto wan = make_sack_path(0.0, 11, sack);
    net::PointToPointLink& link = *wan->device("sender", "receiver").link();
    wan->simulation().at(3_s, [&link] { link.set_loss_rate(0.2, sim::Rng{11}); });
    wan->simulation().at(3100_ms, [&link] { link.set_loss_rate(0.0, sim::Rng{11}); });
    wan->start_flow(0, 0_s);
    wan->run_until(12_s);
    return wan->sender(0).goodput_mbps(0_s, 12_s);
  };
  const double with_sack = run(true);
  const double without = run(false);
  EXPECT_GT(with_sack, 1.05 * without)
      << "sack=" << with_sack << " newreno=" << without;
}

TEST(SackTest, FewerRetransmissionsThanNewReno) {
  // SACK retransmits only real holes; go-back-N/NewReno resends good data.
  auto run = [](bool sack) {
    auto wan = make_sack_path(0.01, 13, sack);
    wan->start_flow(0, 0_s);
    wan->run_until(20_s);
    // Normalize: retransmitted bytes per acked megabyte.
    return static_cast<double>(wan->sender(0).mib().BytesRetrans) /
           (static_cast<double>(wan->sender(0).bytes_acked()) / 1e6);
  };
  EXPECT_LT(run(true), run(false));
}

TEST(SackTest, ScoreboardDrainsAfterRecovery) {
  auto wan = make_sack_path(0.0);
  // One isolated loss episode.
  net::PointToPointLink& link = *wan->device("sender", "receiver").link();
  wan->simulation().at(3_s, [&] { link.set_loss_rate(0.3, sim::Rng{5}); });
  wan->simulation().at(3050_ms, [&] { link.set_loss_rate(0.0, sim::Rng{5}); });
  wan->start_flow(0, 0_s);
  wan->run_until(10_s);
  // Long after the episode everything is repaired: scoreboard empty, no
  // recovery in progress, transfer moving.
  EXPECT_EQ(wan->sender(0).sacked_bytes(), 0u);
  EXPECT_FALSE(wan->sender(0).in_fast_recovery());
  EXPECT_GT(wan->sender(0).mib().PktsRetrans, 0u);
  EXPECT_GT(wan->sender(0).bytes_acked(), 30'000'000u);
}

TEST(SackTest, SenderOnlySackDegradesGracefully) {
  // Sender expects blocks, receiver never sends them: recovery silently
  // behaves like NewReno-with-empty-scoreboard; nothing wedges.
  WanPathConfig cfg;
  cfg.enable_web100 = false;
  cfg.path.ifq_capacity_packets = 100'000;
  cfg.sender.enable_sack = true;
  cfg.receiver.enable_sack = false;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_reno_factory());
  wan->device("sender", "receiver").link()->set_loss_rate(0.01, sim::Rng{17});
  wan->start_flow(0, 0_s);
  wan->run_until(15_s);
  // At 1% loss the sustainable window is ~12 segments (~2 Mbit/s); demand
  // steady progress, not speed.
  EXPECT_GT(wan->sender(0).bytes_acked(), 1'500'000u);
  EXPECT_LE(wan->sender(0).bytes_acked(), wan->receiver(0).bytes_received() + 1460);
}

TEST(SackTest, WorksWithRestrictedSlowStart) {
  // The paper's algorithm composes with SACK: stall-free startup plus
  // efficient recovery from genuine network loss.
  WanPathConfig cfg;
  cfg.enable_web100 = false;
  cfg.sender.enable_sack = true;
  cfg.receiver.enable_sack = true;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_rss_factory());
  wan->device("sender", "receiver").link()->set_loss_rate(0.002, sim::Rng{23});
  wan->start_flow(0, 0_s);
  wan->run_until(20_s);
  EXPECT_EQ(wan->sender(0).mib().SendStall, 0u);
  EXPECT_GT(wan->sender(0).mib().FastRetran, 0u);
  // 0.2% random loss bounds the window near 1.2/sqrt(p) ~ 27 segments
  // (~5 Mbit/s at 60 ms) regardless of slow-start behaviour.
  EXPECT_GT(wan->sender(0).goodput_mbps(0_s, 20_s), 3.0);
}

class SackLossSweep : public ::testing::TestWithParam<double> {};

TEST_P(SackLossSweep, DeterministicAndConsistent) {
  auto run = [this] {
    auto wan = make_sack_path(GetParam(), 31);
    wan->start_flow(0, 0_s);
    wan->run_until(10_s);
    return std::tuple{wan->sender(0).bytes_acked(), wan->sender(0).mib().PktsRetrans,
                      wan->receiver(0).bytes_received()};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
  EXPECT_GT(std::get<0>(a), 100'000u);
}

INSTANTIATE_TEST_SUITE_P(LossRates, SackLossSweep,
                         ::testing::Values(0.001, 0.005, 0.02, 0.05),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "loss" +
                                  std::to_string(static_cast<int>(info.param * 1000));
                         });

}  // namespace
}  // namespace rss::tcp
