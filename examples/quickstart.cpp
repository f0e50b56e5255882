// Quickstart: run one bulk TCP transfer over the paper's canonical path
// (100 Mbps NIC, 100-packet IFQ, 60 ms RTT) with standard TCP and with
// Restricted Slow-Start, and print what Web100 would have shown you.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/presets.hpp"

using namespace rss;
using namespace rss::sim::literals;

namespace {

void run_variant(const char* label, const scenario::CcFactory& factory) {
  auto wan = scenario::ScenarioBuilder{scenario::wan_path_spec({})}.build(factory);
  const sim::Time horizon = 25_s;
  wan->start_flow(0, sim::Time::zero());
  wan->run_until(horizon);

  const tcp::TcpSender& sender = wan->sender(0);
  const auto& mib = sender.mib();
  std::printf("%-24s  goodput %6.1f Mbit/s  send-stalls %3llu  timeouts %2llu  "
              "retrans %4llu  max-cwnd %5.0f pkts\n",
              label, sender.goodput_mbps(sim::Time::zero(), horizon),
              static_cast<unsigned long long>(mib.SendStall),
              static_cast<unsigned long long>(mib.Timeouts),
              static_cast<unsigned long long>(mib.PktsRetrans),
              mib.MaxCwnd / static_cast<double>(sender.mss()));
}

}  // namespace

int main() {
  std::printf("Restricted Slow-Start quickstart — ANL<->LBNL path, 25 s bulk transfer\n");
  std::printf("(100 Mbit/s NIC, IFQ 100 packets, RTT 60 ms, MSS 1460)\n\n");

  run_variant("standard TCP (Reno)", scenario::make_reno_factory());
  run_variant("limited slow-start", scenario::make_limited_slow_start_factory());
  run_variant("restricted slow-start", scenario::make_rss_factory());

  std::printf("\nThe standard stack stalls its own interface queue during slow-start\n"
              "and halves cwnd each time; RSS paces growth with a PID controller on\n"
              "IFQ occupancy (set point 90%%) and avoids the stalls entirely.\n");
  return 0;
}
