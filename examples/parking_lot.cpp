// Declarative-topology tour: the same 2-hop parking lot built twice —
// once from a hand-filled TopologySpec through ScenarioBuilder (showing
// the describe-as-data API), once with the ParkingLot preset — then run
// with an RSS end-to-end flow against Reno cross traffic.

#include <cstdio>

#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/presets.hpp"

using namespace rss;
using namespace rss::sim::literals;

int main() {
  // --- 1. describe the network as data ------------------------------------
  scenario::TopologySpec spec;
  spec.nodes = {"r0", "r1", "r2", "src", "dst", "x0", "y0", "x1", "y1"};

  const auto hop = [&](const char* a, const char* b, sim::Time delay) {
    scenario::LinkSpec l;
    l.a = a;
    l.b = b;
    l.delay = delay;
    l.a_dev = {net::DataRate::mbps(100), 100};  // bottleneck rate, router queue
    l.b_dev = {net::DataRate::mbps(100), 100};
    spec.links.push_back(std::move(l));
  };
  const auto access = [&](const char* host, const char* router) {
    scenario::LinkSpec l;
    l.a = host;
    l.b = router;
    l.delay = 1_ms;
    l.a_dev = {net::DataRate::mbps(100), 100};  // paper-era host NIC
    l.b_dev = {net::DataRate::gbps(1), 1000};
    spec.links.push_back(std::move(l));
  };
  hop("r0", "r1", 10_ms);  // heterogeneous per-hop RTTs
  hop("r1", "r2", 25_ms);
  access("src", "r0");
  access("dst", "r2");
  access("x0", "r0");
  access("y0", "r1");
  access("x1", "r1");
  access("y1", "r2");

  spec.flows.push_back({.src = "src", .dst = "dst", .start = 0_s});  // end-to-end
  spec.flows.push_back({.src = "x0", .dst = "y0", .start = 1_s});    // hop-0 cross
  spec.flows.push_back({.src = "x1", .dst = "y1", .start = 2_s});    // hop-1 cross

  // Flow 0 runs Restricted Slow-Start, the cross traffic standard Reno.
  auto scenario = scenario::ScenarioBuilder{spec}.build(scenario::striped_cc(
      {scenario::make_rss_factory(), scenario::make_reno_factory(),
       scenario::make_reno_factory()}));

  const sim::Time horizon = 20_s;
  scenario->run_until(horizon);

  std::printf("hand-written spec (%zu nodes, %zu links):\n", spec.nodes.size(),
              spec.links.size());
  const auto goodputs = scenario->goodputs_mbps(0_s, horizon);
  const char* labels[] = {"end-to-end (rss)", "hop-0 cross (reno)", "hop-1 cross (reno)"};
  for (std::size_t i = 0; i < goodputs.size(); ++i)
    std::printf("  %-20s %6.2f Mbit/s  stalls=%llu\n", labels[i], goodputs[i],
                static_cast<unsigned long long>(scenario->sender(i).mib().SendStall));
  std::printf("  hop-0 bottleneck drops: %llu, hop-1: %llu\n",
              static_cast<unsigned long long>(
                  scenario->device("r0", "r1").ifq().stats().dropped),
              static_cast<unsigned long long>(
                  scenario->device("r1", "r2").ifq().stats().dropped));

  // --- 2. the same shape, one preset call ----------------------------------
  scenario::ParkingLot::Config cfg;
  cfg.hops = 2;
  cfg.hop_delays = {10_ms, 25_ms};
  cfg.access_rate = net::DataRate::mbps(100);
  scenario::ParkingLot lot{cfg, scenario::striped_cc({scenario::make_rss_factory(),
                                                      scenario::make_reno_factory(),
                                                      scenario::make_reno_factory()})};
  lot.start_all(0_s);
  lot.simulation().run_until(horizon);
  const auto preset_goodputs = lot.goodputs_mbps(0_s, horizon);
  std::printf("ParkingLot preset: end-to-end %.2f Mbit/s over %zu hops\n",
              preset_goodputs[0], cfg.hops);
  return 0;
}
