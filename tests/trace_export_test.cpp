// Tests for the packet tracer and the Web100 CSV exporter.

#include <gtest/gtest.h>

#include <sstream>

#include "net/trace.hpp"
#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/presets.hpp"
#include "web100/csv_export.hpp"

namespace rss {
namespace {

using namespace rss::sim::literals;
using scenario::ScenarioBuilder;
using scenario::wan_path_spec;
using scenario::WanPathConfig;

TEST(PacketTracerTest, RecordsReceivesOnBothEnds) {
  WanPathConfig cfg;
  cfg.enable_web100 = false;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_reno_factory());
  net::PacketTracer tracer;
  tracer.attach(wan->device("receiver", "sender"));  // data arriving at receiver
  tracer.attach(wan->device("sender", "receiver"));  // ACKs arriving at sender

  wan->start_flow(0, 0_s);
  wan->run_until(2_s);

  const auto data_rx = tracer.count([](const net::TraceEvent& e) {
    return e.kind == net::TraceEvent::Kind::kReceive && e.size_bytes > 1000;
  });
  const auto ack_rx = tracer.count([](const net::TraceEvent& e) {
    return e.kind == net::TraceEvent::Kind::kReceive && e.size_bytes == 40;
  });
  EXPECT_EQ(data_rx, wan->receiver(0).packets_received());
  EXPECT_GT(ack_rx, data_rx / 3);  // delayed ACKs: roughly one per two
}

TEST(PacketTracerTest, ChainingPreservesDelivery) {
  // Attaching the tracer must not break the node's own receive path.
  WanPathConfig cfg;
  cfg.enable_web100 = false;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_reno_factory());
  net::PacketTracer tracer;
  tracer.attach(wan->device("receiver", "sender"));
  wan->start_flow(0, 0_s);
  wan->run_until(2_s);
  EXPECT_GT(wan->receiver(0).bytes_received(), 1'000'000u);  // still delivered
  EXPECT_GT(tracer.size(), 100u);
}

TEST(PacketTracerTest, RecordsSendStallsAsDrops) {
  WanPathConfig cfg;
  cfg.enable_web100 = false;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_reno_factory());
  net::PacketTracer tracer;
  tracer.attach(wan->device("sender", "receiver"));
  wan->start_flow(0, 0_s);
  wan->run_until(5_s);
  const auto drops = tracer.count(
      [](const net::TraceEvent& e) { return e.kind == net::TraceEvent::Kind::kDrop; });
  EXPECT_EQ(drops, wan->sender(0).mib().SendStall);
  EXPECT_GT(drops, 0u);
}

TEST(PacketTracerTest, FlowFilterAndDump) {
  WanPathConfig cfg;
  cfg.enable_web100 = false;
  cfg.flow_id = 42;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_reno_factory());
  net::PacketTracer tracer;
  tracer.attach(wan->device("receiver", "sender"));
  wan->start_flow(0, 0_s);
  wan->run_until(1_s);

  const auto flow_events = tracer.for_flow(42);
  EXPECT_EQ(flow_events.size(), tracer.size());
  EXPECT_TRUE(tracer.for_flow(7).empty());

  std::ostringstream os;
  tracer.dump(os);
  EXPECT_NE(os.str().find("flow42"), std::string::npos);
  EXPECT_NE(os.str().find("r "), std::string::npos);

  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(CsvExportTest, RectangularOutputWithHeader) {
  WanPathConfig cfg;
  cfg.web100_poll_period = 100_ms;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_reno_factory());
  wan->start_flow(0, 0_s);
  wan->run_until(2_s);

  std::ostringstream os;
  const auto rows = web100::export_csv(*wan->agent(0), os,
                                       {"SendStall", "CurCwnd", "ThruBytesAcked"}, 0_s,
                                       2_s, 500_ms);
  EXPECT_EQ(rows, 5u);  // t = 0, 0.5, 1.0, 1.5, 2.0

  std::istringstream is{os.str()};
  std::string header;
  std::getline(is, header);
  EXPECT_EQ(header, "t_s,SendStall,CurCwnd,ThruBytesAcked");
  std::size_t data_lines = 0;
  for (std::string line; std::getline(is, line);) ++data_lines;
  EXPECT_EQ(data_lines, 5u);
}

TEST(CsvExportTest, AllVariablesOverloadAndValidation) {
  WanPathConfig cfg;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_reno_factory());
  wan->start_flow(0, 0_s);
  wan->run_until(1_s);
  std::ostringstream os;
  EXPECT_GT(web100::export_csv(*wan->agent(0), os, 0_s, 1_s, 100_ms), 0u);
  EXPECT_THROW(web100::export_csv(*wan->agent(0), os, {}, 0_s, 1_s, 100_ms),
               std::invalid_argument);
  EXPECT_THROW(web100::export_csv(*wan->agent(0), os, 0_s, 1_s, 0_ms), std::invalid_argument);
}

}  // namespace
}  // namespace rss
