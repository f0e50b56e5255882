// ABL-RTT — sensitivity of the result to path RTT. The paper measured one
// path (60 ms); the mechanism (slow-start bursts overflowing a fixed-size
// IFQ) is RTT-dependent: the larger the BDP relative to the IFQ, the worse
// standard TCP's stall penalty and the larger RSS's win.

#include <vector>

#include "artifacts/experiments.hpp"
#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/presets.hpp"
#include "scenario/sweep.hpp"

namespace rss::artifacts {

using namespace rss::sim::literals;

Experiment make_abl_rtt_experiment() {
  Experiment e;
  e.name = "abl_rtt";
  e.title = "goodput vs path RTT at 100 Mbit/s, IFQ 100 pkts, standard vs RSS";
  e.tolerances.fallback = {1e-9, 1e-3};
  e.tolerances.per_column["std_stalls"] = {1.0, 0.0};
  e.tolerances.per_column["rss_stalls"] = {0.0, 0.0};
  e.tolerances.per_column["rss_gain_pct"] = {0.5, 0.01};
  e.run = [] {
    const std::vector<std::int64_t> rtts_ms{10, 30, 60, 120, 200};
    const sim::Time horizon = 30_s;

    struct Cell {
      double goodput{0};
      unsigned long long stalls{0};
    };
    struct Row {
      Cell standard, rss;
    };
    std::vector<Row> rows(rtts_ms.size());

    scenario::parallel_sweep(rtts_ms.size() * 2, [&](std::size_t job) {
      const std::size_t i = job / 2;
      const bool use_rss = job % 2 == 1;
      scenario::WanPathConfig cfg;
      cfg.enable_web100 = false;
      cfg.path.one_way_delay = sim::Time::milliseconds(rtts_ms[i] / 2);
      auto wan = scenario::ScenarioBuilder{scenario::wan_path_spec(cfg)}.build(
          use_rss ? scenario::make_rss_factory() : scenario::make_reno_factory());
      wan->start_flow(0, sim::Time::zero());
      wan->run_until(horizon);
      Cell cell{wan->sender(0).goodput_mbps(sim::Time::zero(), horizon),
                static_cast<unsigned long long>(wan->sender(0).mib().SendStall)};
      (use_rss ? rows[i].rss : rows[i].standard) = cell;
    });

    metrics::Table table{{"rtt_ms", "std_goodput_mbps", "std_stalls", "rss_goodput_mbps",
                          "rss_stalls", "rss_gain_pct"}};
    bool rss_never_loses = true;
    for (std::size_t i = 0; i < rtts_ms.size(); ++i) {
      const auto& r = rows[i];
      const double gain = 100.0 * (r.rss.goodput - r.standard.goodput) / r.standard.goodput;
      rss_never_loses = rss_never_loses && r.rss.goodput >= 0.95 * r.standard.goodput;
      table.add_row({rtts_ms[i], r.standard.goodput, r.standard.stalls, r.rss.goodput,
                     r.rss.stalls, gain});
    }

    // Shape: the win grows with RTT (BDP/IFQ ratio), and RSS never loses.
    const double gain_low = rows.front().rss.goodput / rows.front().standard.goodput;
    const double gain_high = rows.back().rss.goodput / rows.back().standard.goodput;
    ExperimentResult res;
    res.table = std::move(table);
    res.reproduced = rss_never_loses;
    res.verdict = strf("RSS >= standard at every RTT: %s; win grows with RTT: %s",
                       rss_never_loses ? "yes" : "NO", gain_high > gain_low ? "yes" : "NO");
    return res;
  };
  return e;
}

}  // namespace rss::artifacts
