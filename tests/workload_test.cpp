#include "workload/apps.hpp"

#include <gtest/gtest.h>

#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/presets.hpp"

namespace rss::workload {
namespace {

using namespace rss::sim::literals;
using scenario::ScenarioBuilder;
using scenario::wan_path_spec;

TEST(BulkTransferAppTest, UnboundedSourceStartsAtGivenTime) {
  auto wan = ScenarioBuilder{wan_path_spec({})}.build(scenario::make_reno_factory());
  BulkTransferApp app{wan->simulation(), wan->sender(0), 2_s};
  wan->run_until(1_s);
  EXPECT_FALSE(app.started());
  EXPECT_EQ(wan->sender(0).bytes_sent(), 0u);
  wan->run_until(5_s);
  EXPECT_TRUE(app.started());
  EXPECT_GT(wan->sender(0).bytes_sent(), 0u);
}

TEST(BulkTransferAppTest, FiniteObjectSendsExactly) {
  auto wan = ScenarioBuilder{wan_path_spec({})}.build(scenario::make_reno_factory());
  BulkTransferApp app{wan->simulation(), wan->sender(0), 0_s, 200'000};
  wan->run_until(20_s);
  EXPECT_EQ(wan->receiver(0).bytes_received(), 200'000u);
}

TEST(OnOffAppTest, AlternatesPhases) {
  auto wan = ScenarioBuilder{wan_path_spec({})}.build(scenario::make_reno_factory());
  OnOffApp::Options opt;
  opt.start = 0_s;
  opt.on_duration = 500_ms;
  opt.off_duration = 500_ms;
  opt.rate = net::DataRate::mbps(10);
  OnOffApp app{wan->simulation(), wan->sender(0), opt};
  wan->run_until(3_s);
  // 3 s = ~3 on-phases of 0.5 s at 10 Mbps = ~1.875 MB offered.
  EXPECT_NEAR(static_cast<double>(app.bytes_offered()), 1.875e6, 0.4e6);
  EXPECT_GT(wan->receiver(0).bytes_received(), 500'000u);
}

TEST(OnOffAppTest, OfferedLoadMatchesRateDuringOn) {
  auto wan = ScenarioBuilder{wan_path_spec({})}.build(scenario::make_reno_factory());
  OnOffApp::Options opt;
  opt.on_duration = 1_s;
  opt.off_duration = 1000_s;  // effectively one burst
  opt.rate = net::DataRate::mbps(8);
  OnOffApp app{wan->simulation(), wan->sender(0), opt};
  wan->run_until(5_s);
  EXPECT_NEAR(static_cast<double>(app.bytes_offered()), 1e6, 5e4);
}

TEST(OnOffAppTest, ValidatesTick) {
  auto wan = ScenarioBuilder{wan_path_spec({})}.build(scenario::make_reno_factory());
  OnOffApp::Options opt;
  opt.tick = 0_ms;
  EXPECT_THROW(OnOffApp(wan->simulation(), wan->sender(0), opt), std::invalid_argument);
}

TEST(PoissonPacketSourceTest, RateMatchesConfiguration) {
  auto wan = ScenarioBuilder{wan_path_spec({})}.build(scenario::make_reno_factory());
  PoissonPacketSource::Options opt;
  opt.dst_node = 2;  // the receiver node
  opt.packets_per_second = 500.0;
  PoissonPacketSource src{wan->simulation(), wan->node("sender"), opt};
  wan->run_until(10_s);
  EXPECT_NEAR(static_cast<double>(src.packets_sent()), 5000.0, 350.0);
}

TEST(PoissonPacketSourceTest, StopsAtConfiguredTime) {
  auto wan = ScenarioBuilder{wan_path_spec({})}.build(scenario::make_reno_factory());
  PoissonPacketSource::Options opt;
  opt.dst_node = 2;
  opt.packets_per_second = 1000.0;
  opt.stop = 1_s;
  PoissonPacketSource src{wan->simulation(), wan->node("sender"), opt};
  wan->run_until(5_s);
  EXPECT_NEAR(static_cast<double>(src.packets_sent()), 1000.0, 150.0);
}

TEST(PoissonPacketSourceTest, CompetesForIfqAndCanStall) {
  // Cross traffic at ~2x the NIC rate must observe stalls.
  auto wan = ScenarioBuilder{wan_path_spec({})}.build(scenario::make_reno_factory());
  PoissonPacketSource::Options opt;
  opt.dst_node = 2;
  opt.payload_bytes = 1460;
  opt.packets_per_second = 17000.0;  // ~200 Mbps into a 100 Mbps NIC
  PoissonPacketSource src{wan->simulation(), wan->node("sender"), opt};
  wan->run_until(2_s);
  EXPECT_GT(src.packets_stalled(), 0u);
}

TEST(PoissonPacketSourceTest, ValidatesRate) {
  auto wan = ScenarioBuilder{wan_path_spec({})}.build(scenario::make_reno_factory());
  PoissonPacketSource::Options opt;
  opt.packets_per_second = 0.0;
  EXPECT_THROW(PoissonPacketSource(wan->simulation(), wan->node("sender"), opt),
               std::invalid_argument);
}

}  // namespace
}  // namespace rss::workload
