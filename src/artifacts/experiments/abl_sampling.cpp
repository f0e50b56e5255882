// ABL-SAMP — controller sampling-regime ablation: per-ACK event-driven
// control vs the paper's kernel-timer (jiffy) sample-and-hold, with and
// without jiffy-tuned Ziegler-Nichols gains. Quantifies what the kernel
// implementation detail costs and why the paper needed §3's tuning.

#include <string>
#include <vector>

#include "artifacts/experiments.hpp"
#include "metrics/timeseries.hpp"
#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/presets.hpp"
#include "scenario/sweep.hpp"

namespace rss::artifacts {

using namespace rss::sim::literals;

Experiment make_abl_sampling_experiment() {
  Experiment e;
  e.name = "abl_sampling";
  e.title = "controller sampling regime (kernel-timer fidelity) ablation";
  e.tolerances.fallback = {1e-9, 1e-3};
  e.tolerances.per_column["ifq_sigma"] = {0.05, 0.02};
  e.tolerances.per_column["stalls"] = {1.0, 0.0};
  e.run = [] {
    struct Variant {
      std::string label;
      core::RestrictedSlowStart::Options opt;
    };
    std::vector<Variant> variants;
    variants.push_back({"per-ACK (event-driven)", core::RestrictedSlowStart::Options{}});
    {
      core::RestrictedSlowStart::Options o;  // per-ACK gains under a 10 ms hold
      o.sample_period = 10_ms;
      variants.push_back({"10 ms hold, per-ACK gains", o});
    }
    variants.push_back(
        {"10 ms hold, jiffy-tuned ZN", core::RestrictedSlowStart::kernel_timer_options()});
    {
      auto o = core::RestrictedSlowStart::kernel_timer_options();
      o.sample_period = 100_ms;  // HZ=10 era / sloppy timers
      variants.push_back({"100 ms hold, jiffy-tuned ZN", o});
    }

    struct Row {
      double goodput;
      double ifq_sigma;
      unsigned long long stalls;
    };
    std::vector<Row> rows(variants.size());
    const sim::Time horizon = 25_s;

    scenario::parallel_sweep(variants.size(), [&](std::size_t i) {
      scenario::WanPathConfig cfg;
      cfg.enable_web100 = false;
      auto wan = scenario::ScenarioBuilder{scenario::wan_path_spec(cfg)}.build(
          scenario::make_rss_factory(variants[i].opt));
      const net::NetDevice& nic = wan->device("sender", "receiver");
      metrics::TimeSeries ifq{"ifq"};
      wan->simulation().every(20_ms, [&](sim::Time now) {
        ifq.record(now, static_cast<double>(nic.occupancy_packets()));
        return true;
      });
      wan->start_flow(0, sim::Time::zero());
      wan->run_until(horizon);

      rows[i] = {wan->sender(0).goodput_mbps(sim::Time::zero(), horizon),
                 ifq.stddev_from(10_s, horizon),
                 static_cast<unsigned long long>(wan->sender(0).mib().SendStall)};
    });

    metrics::Table table{{"controller", "goodput_mbps", "ifq_sigma", "stalls"}};
    for (std::size_t i = 0; i < variants.size(); ++i) {
      table.add_row({variants[i].label, rows[i].goodput, rows[i].ifq_sigma, rows[i].stalls});
    }

    const bool shape = rows[0].goodput > 85.0 &&             // per-ACK near line rate
                       rows[2].goodput > rows[1].goodput &&  // tuning recovers the hold's cost
                       rows[2].stalls == 0;
    ExperimentResult res;
    res.table = std::move(table);
    res.reproduced = shape;
    res.verdict =
        strf("jiffy-tuned gains recover what mistuned-hold loses, stall-free: %s",
             shape ? "yes" : "NO");
    return res;
  };
  return e;
}

}  // namespace rss::artifacts
