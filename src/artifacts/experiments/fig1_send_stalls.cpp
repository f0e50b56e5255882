// FIG-1 — Figure 1 of the paper: cumulative send-stall signals vs time
// (0..25 s), standard Linux TCP vs the proposed (Restricted Slow-Start)
// TCP, on the ANL<->LBNL path.
//
// Paper's shape: standard TCP accumulates a handful of send-stalls over
// the run (y-axis 0..4 in the figure); the modified TCP stays at zero.

#include <memory>
#include <vector>

#include "artifacts/experiments.hpp"
#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/presets.hpp"
#include "scenario/sweep.hpp"

namespace rss::artifacts {

using namespace rss::sim::literals;

Experiment make_fig1_send_stalls_experiment() {
  Experiment e;
  e.name = "fig1_send_stalls";
  e.title = "cumulative send-stall signals vs time, standard TCP vs RSS (paper Figure 1)";
  e.tolerances.fallback = {1e-9, 1e-6};
  // Cumulative stall counts are integers; a libm-induced one-sample timing
  // shift moves a step edge by at most one row, so allow +-1 per sample.
  e.tolerances.per_column["standard_tcp_cum_stalls"] = {1.0, 0.0};
  e.tolerances.per_column["restricted_ss_cum_stalls"] = {0.0, 0.0};
  e.run = [] {
    const sim::Time horizon = 25_s;
    const sim::Time sample = 500_ms;

    std::vector<scenario::CcVariant> variants;
    for (auto& variant : scenario::standard_variants()) {
      if (variant.label == "limited-slow-start") continue;  // figure has 2 series
      variants.push_back(std::move(variant));
    }

    std::vector<std::unique_ptr<scenario::Scenario>> runs(variants.size());
    scenario::parallel_sweep(variants.size(), [&](std::size_t i) {
      scenario::WanPathConfig cfg;
      cfg.web100_poll_period = sample;
      cfg.sender.trace_stalls = true;
      auto wan = scenario::ScenarioBuilder{scenario::wan_path_spec(cfg)}.build(variants[i].factory);
      wan->start_flow(0, sim::Time::zero());
      wan->run_until(horizon);
      runs[i] = std::move(wan);
    });

    metrics::Table table{{"t_s", "standard_tcp_cum_stalls", "restricted_ss_cum_stalls"}};
    const auto& std_series = runs[0]->agent(0)->series("SendStall");
    const auto& rss_series = runs[1]->agent(0)->series("SendStall");
    for (sim::Time t = sim::Time::zero(); t <= horizon; t += sample) {
      table.add_row({t.to_seconds(), std_series.value_at(t), rss_series.value_at(t)});
    }

    const auto std_stalls = runs[0]->sender(0).mib().SendStall;
    const auto rss_stalls = runs[1]->sender(0).mib().SendStall;
    ExperimentResult r;
    r.table = std::move(table);
    r.reproduced = std_stalls > 0 && rss_stalls == 0;
    r.verdict = strf(
        "standard TCP %llu send-stalls, restricted slow-start %llu; paper shape "
        "(standard accumulates, modified ~0) -> %s",
        static_cast<unsigned long long>(std_stalls),
        static_cast<unsigned long long>(rss_stalls),
        r.reproduced ? "REPRODUCED" : "NOT reproduced");
    return r;
  };
  return e;
}

}  // namespace rss::artifacts
