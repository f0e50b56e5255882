// ABL-IFQ — the paper's §2 motivation: increasing the soft-component
// (txqueuelen) size wastes memory and still underutilizes. Sweep the IFQ
// capacity and compare standard TCP vs RSS: standard TCP needs a very
// large IFQ to stop stalling, while RSS reaches near-line-rate at every
// size.

#include <vector>

#include "artifacts/experiments.hpp"
#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/presets.hpp"
#include "scenario/sweep.hpp"

namespace rss::artifacts {

using namespace rss::sim::literals;

Experiment make_abl_ifq_size_experiment() {
  Experiment e;
  e.name = "abl_ifq_size";
  e.title = "goodput & send-stalls vs interface-queue capacity, standard vs RSS";
  e.tolerances.fallback = {1e-9, 1e-3};
  e.tolerances.per_column["std_stalls"] = {1.0, 0.0};
  e.tolerances.per_column["rss_stalls"] = {0.0, 0.0};
  e.run = [] {
    const std::vector<std::size_t> sizes{20, 50, 100, 200, 500, 1000, 2000};
    const sim::Time horizon = 25_s;

    struct Cell {
      double goodput{0};
      unsigned long long stalls{0};
    };
    struct Row {
      Cell standard, rss;
    };
    std::vector<Row> rows(sizes.size());

    scenario::parallel_sweep(sizes.size() * 2, [&](std::size_t job) {
      const std::size_t i = job / 2;
      const bool use_rss = job % 2 == 1;
      scenario::WanPathConfig cfg;
      cfg.enable_web100 = false;
      cfg.path.ifq_capacity_packets = sizes[i];
      auto wan = scenario::ScenarioBuilder{scenario::wan_path_spec(cfg)}.build(
          use_rss ? scenario::make_rss_factory() : scenario::make_reno_factory());
      wan->start_flow(0, sim::Time::zero());
      wan->run_until(horizon);
      Cell cell{wan->sender(0).goodput_mbps(sim::Time::zero(), horizon),
                static_cast<unsigned long long>(wan->sender(0).mib().SendStall)};
      (use_rss ? rows[i].rss : rows[i].standard) = cell;
    });

    metrics::Table table{
        {"ifq_pkts", "std_goodput_mbps", "std_stalls", "rss_goodput_mbps", "rss_stalls"}};
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      table.add_row({sizes[i], rows[i].standard.goodput, rows[i].standard.stalls,
                     rows[i].rss.goodput, rows[i].rss.stalls});
    }

    // Shape checks: RSS delivers high utilization even at small IFQs (where
    // standard TCP collapses), and both converge at very large IFQs.
    const bool rss_high = rows.front().rss.goodput > 2.0 * rows.front().standard.goodput &&
                          rows[2].rss.goodput > 85.0;
    const bool std_grows = rows.back().standard.goodput > rows.front().standard.goodput;
    ExperimentResult res;
    res.table = std::move(table);
    res.reproduced = rss_high && std_grows;
    res.verdict = strf(
        "RSS >> standard at small IFQ and >85 Mb/s at the paper's 100: %s; standard "
        "improves with IFQ size: %s",
        rss_high ? "yes" : "NO", std_grows ? "yes" : "NO");
    return res;
  };
  return e;
}

}  // namespace rss::artifacts
