// EXT-SACK — loss-recovery machinery comparison: NewReno vs SACK
// (RFC 2018 + RFC 6675-lite pipe algorithm), with and without Restricted
// Slow-Start, under a burst-loss and a continuous-random-loss regime on
// the paper path.

#include <vector>

#include "artifacts/experiments.hpp"
#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/presets.hpp"
#include "scenario/sweep.hpp"

namespace rss::artifacts {

using namespace rss::sim::literals;

namespace {

struct Cell {
  double goodput{0};
  unsigned long long retrans{0};
  unsigned long long timeouts{0};
};

Cell run_one(bool sack, bool rss, bool burst) {
  scenario::WanPathConfig cfg;
  cfg.enable_web100 = false;
  cfg.path.ifq_capacity_packets = rss ? 100 : 100000;  // stock path for pure-recovery runs
  cfg.sender.enable_sack = sack;
  cfg.receiver.enable_sack = sack;
  auto wan = scenario::ScenarioBuilder{scenario::wan_path_spec(cfg)}.build(
      rss ? scenario::make_rss_factory() : scenario::make_reno_factory());
  net::PointToPointLink& link = *wan->device("sender", "receiver").link();
  if (burst) {
    wan->simulation().at(3_s, [&] { link.set_loss_rate(0.2, sim::Rng{11}); });
    wan->simulation().at(3100_ms, [&] { link.set_loss_rate(0.0, sim::Rng{11}); });
  } else {
    link.set_loss_rate(0.01, sim::Rng{13});
  }
  const sim::Time horizon = 12_s;
  wan->start_flow(0, sim::Time::zero());
  wan->run_until(horizon);
  return {wan->sender(0).goodput_mbps(sim::Time::zero(), horizon),
          static_cast<unsigned long long>(wan->sender(0).mib().PktsRetrans),
          static_cast<unsigned long long>(wan->sender(0).mib().Timeouts)};
}

}  // namespace

Experiment make_ext_sack_experiment() {
  Experiment e;
  e.name = "ext_sack";
  e.title = "loss-recovery machinery: NewReno vs SACK, with/without RSS";
  e.tolerances.fallback = {1e-9, 2e-3};
  // Loss realisations ride on Rng draws through libm log(); retransmission
  // and timeout counts can wobble by a few packets across glibc builds.
  e.tolerances.per_column["retrans"] = {5.0, 0.02};
  e.tolerances.per_column["timeouts"] = {1.0, 0.0};
  e.run = [] {
    struct Job {
      const char* label;
      bool sack, rss, burst;
    };
    const std::vector<Job> jobs{
        {"burst | newreno", false, false, true},    {"burst | sack", true, false, true},
        {"burst | rss+newreno", false, true, true}, {"burst | rss+sack", true, true, true},
        {"p=1%  | newreno", false, false, false},   {"p=1%  | sack", true, false, false},
    };
    std::vector<Cell> cells(jobs.size());
    scenario::parallel_sweep(jobs.size(), [&](std::size_t i) {
      cells[i] = run_one(jobs[i].sack, jobs[i].rss, jobs[i].burst);
    });

    metrics::Table table{{"scenario", "goodput_mbps", "retrans", "timeouts"}};
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      table.add_row({jobs[i].label, cells[i].goodput, cells[i].retrans, cells[i].timeouts});
    }

    // The rss rows run on the paper's IFQ-100 path while the pure-recovery
    // rows use a huge IFQ, so compare within each pair, not across.
    const bool shape = cells[1].goodput > cells[0].goodput &&  // sack wins the burst case
                       cells[3].goodput > cells[2].goodput &&  // ...with RSS too
                       cells[5].retrans <= cells[4].retrans;   // never retransmits more
    ExperimentResult res;
    res.table = std::move(table);
    res.reproduced = shape;
    res.verdict = strf(
        "SACK wins multi-hole recovery, composes with RSS, and never retransmits more "
        "than NewReno: %s",
        shape ? "yes" : "NO");
    return res;
  };
  return e;
}

}  // namespace rss::artifacts
