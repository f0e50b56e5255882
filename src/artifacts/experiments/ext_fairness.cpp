// EXT-FAIR — the paper's stated design goal is "optimal bandwidth
// utilization, while still being network friendly". RSS only restricts its
// own startup, so it must not hurt competing standard flows. Three
// dumbbell populations (4 flows, staggered starts, shared 100 Mbit/s
// bottleneck): all-Reno, all-RSS, and mixed.
//
// Built on the declarative topology API: the dumbbell spec comes from
// dumbbell_spec, the staggered starts are declared on the FlowSpecs,
// and ScenarioBuilder wires it.

#include <memory>
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
  std::vector<double> goodputs;
  double fairness{0};
  double total{0};
  unsigned long long stalls{0};
};

Result run_population(const std::string& label, const scenario::FlowCcFactory& factory) {
  scenario::DumbbellConfig cfg;
  cfg.flows = 4;
  // Paper-era hosts: the access NIC runs at the same 100 Mbit/s as the
  // shared bottleneck, so each flow's startup can stall its *own* IFQ
  // (host congestion) while steady-state contention happens at the router
  // (network congestion).
  cfg.access_rate = net::DataRate::mbps(100);

  scenario::TopologySpec spec = scenario::dumbbell_spec(cfg);
  for (std::size_t i = 0; i < spec.flows.size(); ++i)
    spec.flows[i].start = sim::Time::seconds(static_cast<std::int64_t>(2 * i));
  auto scenario = scenario::ScenarioBuilder{std::move(spec)}.build(factory);

  const sim::Time horizon = 40_s;
  scenario->run_until(horizon);

  Result r;
  r.label = label;
  r.goodputs = scenario->goodputs_mbps(sim::Time::zero(), horizon);
  r.fairness = metrics::jain_fairness(r.goodputs);
  r.total = std::accumulate(r.goodputs.begin(), r.goodputs.end(), 0.0);
  for (std::size_t i = 0; i < cfg.flows; ++i) r.stalls += scenario->sender(i).mib().SendStall;
  return r;
}

}  // namespace

Experiment make_ext_fairness_experiment() {
  Experiment e;
  e.name = "ext_fairness";
  e.title = "4 staggered flows on a shared 100 Mbit/s dumbbell: friendliness";
  e.tolerances.fallback = {1e-9, 1e-3};
  e.tolerances.per_column["jain_fairness"] = {0.005, 0.0};
  e.tolerances.per_column["stalls"] = {2.0, 0.0};
  e.run = [] {
    std::vector<Result> results(3);
    const std::vector<std::string> labels{"all-reno", "all-rss", "mixed rss/reno"};

    scenario::parallel_sweep(3, [&](std::size_t i) {
      scenario::FlowCcFactory factory;
      if (i == 0) {
        factory = scenario::uniform_cc(scenario::make_reno_factory());
      } else if (i == 1) {
        factory = scenario::uniform_cc(scenario::make_rss_factory());
      } else {
        // Alternating mixed population: RSS on even flow indices.
        factory = scenario::striped_cc(
            {scenario::make_rss_factory(), scenario::make_reno_factory()});
      }
      results[i] = run_population(labels[i], factory);
    });

    metrics::Table table{{"population", "jain_fairness", "total_mbps", "stalls",
                          "flow0_mbps", "flow1_mbps", "flow2_mbps", "flow3_mbps"}};
    for (const auto& r : results) {
      table.add_row({r.label, r.fairness, r.total, r.stalls, r.goodputs[0], r.goodputs[1],
                     r.goodputs[2], r.goodputs[3]});
    }

    // Mixed population head-to-head: RSS flows are 0 and 2.
    const auto& mixed = results[2];
    const double rss_share = mixed.goodputs[0] + mixed.goodputs[2];
    const double reno_share = mixed.goodputs[1] + mixed.goodputs[3];
    const bool friendly = mixed.fairness > 0.6 && rss_share < 2.0 * reno_share;
    const bool fair_populations = results[0].fairness > 0.6 && results[1].fairness > 0.6;
    ExperimentResult res;
    res.table = std::move(table);
    res.reproduced = friendly && fair_populations;
    res.verdict = strf(
        "mixed split: RSS pair %.1f Mb/s vs Reno pair %.1f Mb/s; network friendly (no "
        "starvation either way): %s",
        rss_share, reno_share, res.reproduced ? "yes" : "NO");
    return res;
  };
  return e;
}

}  // namespace rss::artifacts
