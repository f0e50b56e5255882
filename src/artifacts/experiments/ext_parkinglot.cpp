// EXT-PARKINGLOT — multi-bottleneck scenario breadth: a 3-hop parking-lot
// topology with heterogeneous per-hop RTTs and one Reno cross flow per
// hop. The end-to-end flow crosses every bottleneck (so it pays every
// hop's contention) while each cross flow loads exactly one hop. Two
// populations differ only in the end-to-end flow's congestion control —
// standard Reno vs Restricted Slow-Start — with the paper's host-NIC
// constraint (access at the bottleneck's 100 Mbit/s, 100-packet IFQ), so
// startup overshoot stalls the sender's own interface queue exactly as on
// the WAN path.
//
// Shape under test: RSS eliminates the end-to-end flow's send-stalls
// without starving the cross traffic on any hop.

#include <numeric>
#include <string>
#include <vector>

#include "artifacts/experiments.hpp"
#include "metrics/summary.hpp"
#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/presets.hpp"
#include "scenario/sweep.hpp"

namespace rss::artifacts {

using namespace rss::sim::literals;

namespace {

struct Result {
  std::string label;
  std::vector<double> goodputs;  // flow 0 = end-to-end, then one per hop
  double fairness{0};
  double total{0};
  unsigned long long e2e_stalls{0};
};

Result run_population(const std::string& label, const scenario::CcFactory& e2e_cc) {
  scenario::ParkingLotConfig cfg;
  cfg.hops = 3;
  cfg.cross_flows_per_hop = 1;
  // Heterogeneous per-hop RTTs: the short-, medium- and long-haul segments
  // of the chain (end-to-end RTT ~104 ms; cross-flow RTTs ~14/34/64 ms).
  cfg.hop_delays = {5_ms, 15_ms, 30_ms};
  // Paper-era hosts: access NICs run at the bottleneck's 100 Mbit/s with a
  // 100-packet IFQ, so slow-start overshoot stalls the local queue.
  cfg.access_rate = net::DataRate::mbps(100);
  cfg.bottleneck_rate = net::DataRate::mbps(100);

  // Flow 0 (end-to-end) gets the population's algorithm; cross traffic is
  // always standard Reno.
  auto reno = scenario::make_reno_factory();
  auto lot = scenario::ScenarioBuilder{scenario::parking_lot_spec(cfg)}.build(
      [&](std::size_t flow) { return flow == 0 ? e2e_cc() : reno(); });
  lot->start_flow(0, 0_s);
  for (std::size_t i = 1; i < lot->flow_count(); ++i)
    lot->start_flow(i, sim::Time::seconds(static_cast<std::int64_t>(i)));

  const sim::Time horizon = 40_s;
  lot->run_until(horizon);

  Result r;
  r.label = label;
  r.goodputs = lot->goodputs_mbps(sim::Time::zero(), horizon);
  r.fairness = metrics::jain_fairness(r.goodputs);
  r.total = std::accumulate(r.goodputs.begin(), r.goodputs.end(), 0.0);
  r.e2e_stalls = lot->sender(0).mib().SendStall;
  return r;
}

}  // namespace

Experiment make_ext_parkinglot_experiment() {
  Experiment e;
  e.name = "ext_parkinglot";
  e.title = "3-hop parking lot, heterogeneous RTTs: Reno vs RSS end-to-end flow";
  e.tolerances.fallback = {1e-9, 1e-3};
  e.tolerances.per_column["jain_fairness"] = {0.005, 0.0};
  e.tolerances.per_column["e2e_stalls"] = {2.0, 0.0};
  e.run = [] {
    std::vector<Result> results(2);
    const std::vector<std::string> labels{"reno-e2e", "rss-e2e"};

    scenario::parallel_sweep(2, [&](std::size_t i) {
      results[i] = run_population(labels[i], i == 0 ? scenario::make_reno_factory()
                                                    : scenario::make_rss_factory());
    });

    metrics::Table table{{"population", "e2e_mbps", "e2e_stalls", "cross0_mbps",
                          "cross1_mbps", "cross2_mbps", "jain_fairness", "total_mbps"}};
    for (const auto& r : results) {
      table.add_row({r.label, r.goodputs[0], r.e2e_stalls, r.goodputs[1], r.goodputs[2],
                     r.goodputs[3], r.fairness, r.total});
    }

    const auto& reno = results[0];
    const auto& rss = results[1];
    const bool stall_fix = rss.e2e_stalls < reno.e2e_stalls;
    bool nobody_starved = true;
    for (const auto& r : results)
      for (const double g : r.goodputs) nobody_starved = nobody_starved && g > 1.0;
    ExperimentResult res;
    res.table = std::move(table);
    res.reproduced = stall_fix && nobody_starved;
    res.verdict = strf(
        "end-to-end stalls %llu (reno) -> %llu (rss); e2e goodput %.1f -> %.1f Mb/s; "
        "all hops' cross traffic alive: %s",
        reno.e2e_stalls, rss.e2e_stalls, reno.goodputs[0], rss.goodputs[0],
        res.reproduced ? "yes" : "NO");
    return res;
  };
  return e;
}

}  // namespace rss::artifacts
