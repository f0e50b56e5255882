// ABL-AQM — router queue-discipline ablation on the dumbbell: tail-drop
// vs RED (the era's AQM). RSS addresses *host* congestion (the local IFQ,
// always tail-drop in Linux); AQM addresses *network* congestion. The two
// act at different queues, so RED neither replaces nor conflicts with RSS.
//
// Table layout: the two full-topology dumbbell populations first, then the
// two synthetic equal-offered-load queue-discipline rows; columns that do
// not apply to a row hold 0.

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "artifacts/experiments.hpp"
#include "metrics/summary.hpp"
#include "net/queue.hpp"
#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/presets.hpp"
#include "scenario/sweep.hpp"

namespace rss::artifacts {

using namespace rss::sim::literals;

namespace {

struct PopulationRow {
  std::string label;
  double total{0};
  double fairness{0};
  unsigned long long router_drops{0};
  unsigned long long stalls{0};
};

PopulationRow run_population(const std::string& label, bool use_rss) {
  scenario::DumbbellConfig cfg;
  cfg.flows = 4;
  cfg.access_rate = net::DataRate::mbps(100);  // host-limited startups
  auto d = scenario::ScenarioBuilder{scenario::dumbbell_spec(cfg)}.build(
      use_rss ? scenario::make_rss_factory() : scenario::make_reno_factory());
  for (std::size_t i = 0; i < cfg.flows; ++i)
    d->start_flow(i, sim::Time::milliseconds(static_cast<std::int64_t>(500 * i)));
  const sim::Time horizon = 30_s;
  d->run_until(horizon);

  PopulationRow r;
  r.label = label;
  const auto goodputs = d->goodputs_mbps(sim::Time::zero(), horizon);
  r.total = std::accumulate(goodputs.begin(), goodputs.end(), 0.0);
  r.fairness = metrics::jain_fairness(goodputs);
  r.router_drops = d->device("routerL", "routerR").ifq().stats().dropped;
  for (std::size_t i = 0; i < cfg.flows; ++i) r.stalls += d->sender(i).mib().SendStall;
  return r;
}

}  // namespace

Experiment make_abl_aqm_experiment() {
  Experiment e;
  e.name = "abl_aqm";
  e.title = "host IFQ vs router queue discipline: tail-drop/RED orthogonality to RSS";
  e.tolerances.fallback = {1e-9, 1e-3};
  // Drop counters ride on Rng draws through libm; allow small integer slack.
  e.tolerances.per_column["router_drops"] = {3.0, 0.02};
  e.tolerances.per_column["stalls"] = {2.0, 0.0};
  e.tolerances.per_column["synth_drops"] = {3.0, 0.02};
  e.tolerances.per_column["synth_early_drops"] = {3.0, 0.02};
  e.tolerances.per_column["synth_mean_occ"] = {0.5, 0.02};
  e.run = [] {
    std::vector<PopulationRow> rows(2);
    scenario::parallel_sweep(2, [&](std::size_t i) {
      rows[i] = run_population(
          i == 0 ? "tail-drop router, all-reno" : "tail-drop router, all-rss", i == 1);
    });

    // Synthetic RED-vs-droptail at equal offered load: drive both queues
    // with the same arrival pattern and compare drop clustering.
    net::DropTailQueue dt{100};
    net::RedQueue::Options red_opt;
    red_opt.capacity_packets = 100;
    red_opt.min_threshold = 30;
    red_opt.max_threshold = 90;
    net::RedQueue red{red_opt, sim::Rng{42}};
    sim::Rng arrivals{7};
    std::uint64_t dt_burst_drops = 0, red_burst_drops = 0;
    double dt_occ_sum = 0, red_occ_sum = 0;
    const int rounds = 2000;
    for (int round = 0; round < rounds; ++round) {
      // Bursty arrivals: 0-5 packets in, 2 out — slow-start-ish overload.
      const auto in = arrivals.next_in(0, 5);
      for (std::uint64_t k = 0; k < in; ++k) {
        net::Packet p;
        p.payload_bytes = 1460;
        const bool dt_ok = dt.enqueue(p);
        const bool red_ok = red.enqueue(p);
        dt_burst_drops += !dt_ok;
        red_burst_drops += !red_ok;
      }
      (void)dt.dequeue();
      (void)dt.dequeue();
      (void)red.dequeue();
      (void)red.dequeue();
      dt_occ_sum += static_cast<double>(dt.size_packets());
      red_occ_sum += static_cast<double>(red.size_packets());
    }
    const double dt_mean_occ = dt_occ_sum / rounds;
    const double red_mean_occ = red_occ_sum / rounds;

    metrics::Table table{{"configuration", "total_mbps", "jain_fairness", "router_drops",
                          "stalls", "synth_drops", "synth_early_drops", "synth_mean_occ"}};
    for (const auto& r : rows) {
      table.add_row({r.label, r.total, r.fairness, r.router_drops, r.stalls, 0, 0, 0.0});
    }
    table.add_row({"synthetic tail-drop (cap 100)", 0.0, 0.0, 0, 0, dt_burst_drops, 0,
                   dt_mean_occ});
    table.add_row({"synthetic RED (cap 100)", 0.0, 0.0, 0, 0, red_burst_drops,
                   red.early_drops(), red_mean_occ});

    // RED's virtue under sustained overload is *standing-queue* control
    // (lower mean occupancy = lower latency), not fewer drops.
    const bool shape = red.early_drops() > 0 && red_mean_occ < dt_mean_occ &&
                       rows[1].stalls <= rows[0].stalls;
    ExperimentResult res;
    res.table = std::move(table);
    res.reproduced = shape;
    res.verdict = strf(
        "RED sheds early & keeps the standing queue shorter; RSS reduces host stalls "
        "independent of router discipline: %s",
        shape ? "yes" : "NO");
    return res;
  };
  return e;
}

}  // namespace rss::artifacts
