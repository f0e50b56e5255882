// Property suite for the TCP stack: for every congestion-control variant
// crossed with loss rates and RTTs, end-to-end invariants must hold:
//
//   I1 (integrity)    bytes the receiver delivered in order == bytes the
//                     sender saw cumulatively acked (modulo ACKs in flight)
//   I2 (conservation) acked <= sent <= acked + window
//   I3 (liveness)     the transfer keeps making progress under loss
//   I4 (window floor) cwnd never collapses below 1 MSS
//   I5 (line rate)    goodput never exceeds the bottleneck rate
//   I6 (determinism)  identical runs produce identical counters

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/presets.hpp"

namespace rss {
namespace {

using namespace rss::sim::literals;
using scenario::ScenarioBuilder;
using scenario::wan_path_spec;
using scenario::WanPathConfig;

struct TcpCase {
  std::string variant;
  double loss_rate;
  std::int64_t rtt_ms;
};

class TcpInvariantTest : public ::testing::TestWithParam<TcpCase> {
 protected:
  // WanPath owns a Simulation and is intentionally pinned (non-movable);
  // tests hold it by unique_ptr.
  static std::unique_ptr<scenario::Scenario> make(const TcpCase& c) {
    WanPathConfig cfg;
    cfg.enable_web100 = false;
    cfg.sender.trace_cwnd = true;
    cfg.path.one_way_delay = sim::Time::milliseconds(c.rtt_ms / 2);
    auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::factory_by_name(c.variant));
    if (c.loss_rate > 0.0)
      wan->device("sender", "receiver").link()->set_loss_rate(c.loss_rate, sim::Rng{99});
    return wan;
  }
};

TEST_P(TcpInvariantTest, EndToEndInvariantsHold) {
  const auto c = GetParam();
  auto wan = make(c);
  wan->start_flow(0, 0_s);
  wan->run_until(12_s);

  const auto& s = wan->sender(0);
  const auto& r = wan->receiver(0);

  // I3: liveness — even at 5% loss something substantial must get through.
  EXPECT_GT(s.bytes_acked(), 50'000u) << "transfer stalled";

  // I1: integrity — everything acked was delivered in order at the
  // receiver (receiver may be ahead by ACKs still in flight).
  EXPECT_LE(s.bytes_acked(), r.bytes_received());
  EXPECT_LE(r.bytes_received() - s.bytes_acked(), 4'000'000u) << "ACK starvation";

  // I2: conservation.
  EXPECT_LE(s.bytes_acked(), s.bytes_sent());

  // I4: window floor.
  EXPECT_GE(s.cwnd_trace().min_value(), 1460.0);

  // I5: line rate bound (payload efficiency 1460/1500).
  EXPECT_LE(wan->sender(0).goodput_mbps(0_s, 12_s), 97.4);

  // Web100 accounting consistency.
  EXPECT_EQ(s.mib().ThruBytesAcked, s.bytes_acked());
  EXPECT_GE(s.mib().PktsOut, s.mib().PktsRetrans);
}

TEST_P(TcpInvariantTest, DeterministicReplay) {
  const auto c = GetParam();
  auto run = [&c] {
    auto wan = make(c);
    wan->start_flow(0, 0_s);
    wan->run_until(6_s);
    return std::tuple{wan->sender(0).bytes_acked(), wan->sender(0).mib().PktsOut,
                      wan->sender(0).mib().PktsRetrans, wan->sender(0).mib().Timeouts,
                      wan->receiver(0).bytes_received()};
  };
  EXPECT_EQ(run(), run());
}

std::vector<TcpCase> all_cases() {
  std::vector<TcpCase> cases;
  for (const auto& variant : scenario::variant_names()) {
    for (const double loss : {0.0, 0.001, 0.02}) {
      cases.push_back({variant, loss, 60});
    }
    cases.push_back({variant, 0.0, 10});
    cases.push_back({variant, 0.005, 200});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllVariants, TcpInvariantTest, ::testing::ValuesIn(all_cases()),
                         [](const ::testing::TestParamInfo<TcpCase>& info) {
                           std::string name = info.param.variant + "_loss" +
                                              std::to_string(static_cast<int>(
                                                  info.param.loss_rate * 1000)) +
                                              "_rtt" + std::to_string(info.param.rtt_ms);
                           for (auto& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

// --- Receiver-side invariants under adversarial reordering/duplication ---

class ReceiverPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReceiverPropertyTest, ReceiverByteCountEqualsContiguousPrefixUnderLoss) {
  WanPathConfig cfg;
  cfg.enable_web100 = false;
  auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(scenario::make_reno_factory());
  wan->device("sender", "receiver").link()->set_loss_rate(0.03, sim::Rng{GetParam()});
  wan->start_flow(0, 0_s);
  wan->run_until(8_s);
  const auto& r = wan->receiver(0);
  // rcv_nxt advanced exactly bytes_received from the initial sequence
  // (distance is a hidden friend of SeqNum, found via ADL).
  EXPECT_EQ(distance(tcp::SeqNum{0}, r.rcv_nxt()),
            static_cast<std::int32_t>(r.bytes_received()));
  EXPECT_GT(r.out_of_order_packets(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReceiverPropertyTest,
                         ::testing::Values(7u, 21u, 333u, 4096u));

}  // namespace
}  // namespace rss
