// TAB-1 — the paper's §4 headline result: "our scheme is able to achieve
// 40% improvement in throughput compared to the standard TCP" on a
// 100 Mbit/s, 60 ms-RTT path. Standard TCP vs Limited Slow-Start
// (RFC 3742) vs Restricted Slow-Start on the same bulk transfer.

#include <string>
#include <vector>

#include "artifacts/experiments.hpp"
#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/presets.hpp"
#include "scenario/sweep.hpp"

namespace rss::artifacts {

using namespace rss::sim::literals;

Experiment make_tab1_throughput_experiment() {
  Experiment e;
  e.name = "tab1_throughput";
  e.title = "bulk-transfer throughput by congestion-control variant (paper Table 1 / §4)";
  e.tolerances.fallback = {1e-9, 1e-3};
  // Derived ratio: goodput drift within tolerance on both operands can
  // amplify through 100*(rss/std - 1), so it needs its own wider band.
  e.tolerances.per_column["vs_standard_pct"] = {0.5, 0.01};
  e.tolerances.per_column["stalls"] = {1.0, 0.0};
  e.tolerances.per_column["timeouts"] = {0.0, 0.0};
  e.run = [] {
    const sim::Time horizon = 25_s;

    struct Row {
      std::string label;
      double goodput_mbps{0};
      unsigned long long stalls{0};
      unsigned long long timeouts{0};
      double max_cwnd_pkts{0};
    };

    auto variants = scenario::standard_variants();
    std::vector<Row> rows(variants.size());
    scenario::parallel_sweep(variants.size(), [&](std::size_t i) {
      scenario::WanPathConfig cfg;
      cfg.enable_web100 = false;
      auto wan = scenario::ScenarioBuilder{scenario::wan_path_spec(cfg)}.build(variants[i].factory);
      wan->start_flow(0, sim::Time::zero());
      wan->run_until(horizon);
      rows[i] = {variants[i].label, wan->sender(0).goodput_mbps(sim::Time::zero(), horizon),
                 static_cast<unsigned long long>(wan->sender(0).mib().SendStall),
                 static_cast<unsigned long long>(wan->sender(0).mib().Timeouts),
                 wan->sender(0).mib().MaxCwnd / 1460.0};
    });

    const double standard = rows[0].goodput_mbps;
    metrics::Table table{
        {"variant", "goodput_mbps", "vs_standard_pct", "stalls", "timeouts",
         "max_cwnd_pkts"}};
    for (const auto& r : rows) {
      table.add_row({r.label, r.goodput_mbps,
                     100.0 * (r.goodput_mbps - standard) / standard, r.stalls, r.timeouts,
                     r.max_cwnd_pkts});
    }

    const double rss = rows[2].goodput_mbps;
    const double improvement = 100.0 * (rss - standard) / standard;
    ExperimentResult res;
    res.table = std::move(table);
    res.reproduced = improvement > 20.0;
    res.verdict =
        strf("paper claim: +40%% for restricted slow-start; measured %+.1f%% -> %s",
             improvement, res.reproduced ? "REPRODUCED (shape)" : "NOT reproduced");
    return res;
  };
  return e;
}

}  // namespace rss::artifacts
