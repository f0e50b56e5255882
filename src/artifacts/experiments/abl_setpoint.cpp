// ABL-SP — ablation of the paper's 90% set-point choice (§3). Sweep the
// set-point fraction: too low leaves the pipe underfilled; too high erodes
// the burst margin and risks stalls. 0.9 sits on the flat top of the
// goodput curve with a comfortable margin.

#include <vector>

#include "artifacts/experiments.hpp"
#include "metrics/timeseries.hpp"
#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/presets.hpp"
#include "scenario/sweep.hpp"

namespace rss::artifacts {

using namespace rss::sim::literals;

Experiment make_abl_setpoint_experiment() {
  Experiment e;
  e.name = "abl_setpoint";
  e.title = "Restricted Slow-Start set-point fraction sweep (IFQ = 100 pkts)";
  e.tolerances.fallback = {1e-9, 1e-3};
  e.tolerances.per_column["mean_ifq"] = {0.5, 0.02};
  e.tolerances.per_column["peak_ifq"] = {1.0, 0.0};
  e.tolerances.per_column["stalls"] = {1.0, 0.0};
  e.run = [] {
    const std::vector<double> fractions{0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 1.0};
    const sim::Time horizon = 25_s;

    struct Row {
      double goodput;
      double mean_ifq;
      double peak_ifq;
      unsigned long long stalls;
    };
    std::vector<Row> rows(fractions.size());

    scenario::parallel_sweep(fractions.size(), [&](std::size_t i) {
      core::RestrictedSlowStart::Options rss_opt;
      rss_opt.setpoint_fraction = fractions[i];
      scenario::WanPathConfig cfg;
      cfg.enable_web100 = false;
      auto wan = scenario::ScenarioBuilder{scenario::wan_path_spec(cfg)}.build(
          scenario::make_rss_factory(rss_opt));
      const net::NetDevice& nic = wan->device("sender", "receiver");

      metrics::TimeSeries ifq{"ifq"};
      wan->simulation().every(20_ms, [&](sim::Time now) {
        ifq.record(now, static_cast<double>(nic.occupancy_packets()));
        return true;
      });
      wan->start_flow(0, sim::Time::zero());
      wan->run_until(horizon);

      rows[i] = {wan->sender(0).goodput_mbps(sim::Time::zero(), horizon),
                 ifq.time_weighted_mean(10_s, horizon), ifq.max_value(),
                 static_cast<unsigned long long>(wan->sender(0).mib().SendStall)};
    });

    metrics::Table table{
        {"setpoint_fraction", "goodput_mbps", "mean_ifq", "peak_ifq", "stalls"}};
    for (std::size_t i = 0; i < fractions.size(); ++i) {
      table.add_row({fractions[i], rows[i].goodput, rows[i].mean_ifq, rows[i].peak_ifq,
                     rows[i].stalls});
    }

    // The paper's 0.9 must be on the flat top and stall-free.
    const auto& p90 = rows[4];
    const bool ok = p90.goodput > 75.0 && p90.stalls == 0;
    ExperimentResult res;
    res.table = std::move(table);
    res.reproduced = ok;
    res.verdict = strf("paper's 90%% choice: %.1f Mb/s, %llu stalls -> %s", p90.goodput,
                       static_cast<unsigned long long>(p90.stalls),
                       ok ? "validated" : "NOT validated");
    return res;
  };
  return e;
}

}  // namespace rss::artifacts
