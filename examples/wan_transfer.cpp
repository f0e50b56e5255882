// WAN transfer deep-dive: reproduces the paper's measurement methodology.
// Runs a single flow on the ANL<->LBNL path with Web100 polling and emits
// CSV time series (cwnd, IFQ occupancy, cumulative send-stalls, goodput)
// suitable for gnuplot, for either variant.
//
// Usage:  wan_transfer [standard|limited|restricted] [seconds]
// Output: CSV on stdout.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "metrics/csv.hpp"
#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/presets.hpp"

using namespace rss;
using namespace rss::sim::literals;

int main(int argc, char** argv) {
  const std::string variant = argc > 1 ? argv[1] : "restricted";
  const int seconds = argc > 2 ? std::atoi(argv[2]) : 25;
  if (seconds <= 0) {
    std::fprintf(stderr, "bad duration\n");
    return 1;
  }

  scenario::CcFactory factory;
  if (variant == "standard") {
    factory = scenario::make_reno_factory();
  } else if (variant == "limited") {
    factory = scenario::make_limited_slow_start_factory();
  } else if (variant == "restricted") {
    factory = scenario::make_rss_factory();
  } else {
    std::fprintf(stderr, "usage: %s [standard|limited|restricted] [seconds]\n", argv[0]);
    return 1;
  }

  scenario::WanPathConfig cfg;
  cfg.web100_poll_period = 100_ms;
  cfg.sender.trace_cwnd = true;
  auto wan = scenario::ScenarioBuilder{scenario::wan_path_spec(cfg)}.build(factory);
  const net::NetDevice& nic = wan->device("sender", "receiver");

  // Sample IFQ occupancy alongside the Web100 poller.
  metrics::TimeSeries ifq{"ifq"};
  wan->simulation().every(100_ms, [&](sim::Time now) {
    ifq.record(now, static_cast<double>(nic.occupancy_packets()));
    return true;
  });

  const sim::Time horizon = sim::Time::seconds(seconds);
  wan->start_flow(0, sim::Time::zero());
  wan->run_until(horizon);

  metrics::CsvWriter csv{std::cout};
  csv.header({"t_s", "cwnd_pkts", "ifq_pkts", "send_stalls", "acked_mbytes", "srtt_ms"});
  const auto* agent = wan->agent(0);
  const auto& stalls = agent->series("SendStall");
  const auto& acked = agent->series("ThruBytesAcked");
  const auto& cwnd = agent->series("CurCwnd");
  const auto& srtt = agent->series("SmoothedRTT_ms");
  for (sim::Time t = sim::Time::zero(); t <= horizon; t += 100_ms) {
    csv.field(t.to_seconds())
        .field(cwnd.value_at(t) / 1460.0)
        .field(ifq.value_at(t))
        .field(stalls.value_at(t))
        .field(acked.value_at(t) / 1e6)
        .field(srtt.value_at(t))
        .endrow();
  }

  std::fprintf(stderr, "%s: goodput %.1f Mbit/s, %llu send-stalls over %d s\n",
               variant.c_str(), wan->sender(0).goodput_mbps(sim::Time::zero(), horizon),
               static_cast<unsigned long long>(wan->sender(0).mib().SendStall), seconds);
  return 0;
}
