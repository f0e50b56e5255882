// EXT-HYBRID-FLUID — fidelity gate for the hybrid fluid/packet traffic
// engine. A single-bottleneck parking lot carries one packet-level Reno
// foreground flow against 4 or 5 background Reno aggregates; each
// configuration runs twice, once with packet background and once with the
// background fluidized (rate-ODE aggregates coupled into the bottleneck
// queue). The foreground flow keeps its full packet-level TCP machinery in
// both runs, so its goodput and send-stall counts measure how faithfully
// the fluid background reproduces the pressure of the packet background.
//
// Shape under test: fluidizing the background leaves the foreground's
// goodput within 5% of the all-packet run (and its send-stall count within
// the same budget), and fluid integration stays byte-stable when the
// simulation is split across partitions.
//
// Scope: the 5% equivalence holds in the moderate-multiplexing regime this
// study pins (several same-RTT background aggregates on one bottleneck,
// measured over many AIMD sawtooth periods). Multi-bottleneck foregrounds
// in timeout-dominated regimes do not track this closely — fluidization is
// a background-traffic model, not a foreground one.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "artifacts/experiments.hpp"
#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/presets.hpp"
#include "scenario/sweep.hpp"
#include "web100/mib.hpp"

namespace rss::artifacts {

using namespace rss::sim::literals;

namespace {

constexpr double kGoodputTolerance = 0.05;  // ±5% relative on fg goodput
constexpr sim::Time kWarmup = 5_s;
constexpr sim::Time kHorizon = 180_s;

struct Result {
  std::size_t cross{0};
  bool fluid{false};
  double fg_mbps{0};
  double bg_mbps{0};
  unsigned long long fg_stalls{0};
  unsigned long long fg_retrans{0};
};

/// One population: dumbbell parking lot, `cross` background flows, packet
/// or fluid background. The foreground goodput is windowed past warmup so
/// both models are compared in their AIMD steady state.
Result run_population(std::size_t cross, bool fluid) {
  scenario::ParkingLotConfig cfg;
  cfg.hops = 1;
  cfg.cross_flows_per_hop = cross;
  cfg.hop_delays = {20_ms};
  cfg.access_rate = net::DataRate::mbps(100);
  cfg.bottleneck_rate = net::DataRate::mbps(100);
  cfg.fluid_cross = fluid;
  // The equivalence study compares traffic models, not execution engines:
  // pin an explicit partition policy so the process-wide --partitions
  // default (which only fills in unpinned specs) can't re-cut the dumbbell
  // and perturb same-timestamp tie-breaks mid-study. Two-way is the
  // smallest explicit count; it splits at the 20 ms hop and matches the
  // single-scheduler run byte for byte on this topology.
  cfg.execution.partitions = 2;
  auto lot = scenario::ScenarioBuilder{scenario::parking_lot_spec(cfg)}.build(
      scenario::make_reno_factory());
  for (std::size_t i = 0; i < lot->flow_count(); ++i) lot->start_flow(i, sim::Time::zero());

  lot->run_until(kWarmup);
  const std::uint64_t acked0 = lot->sender(0).mib().ThruBytesAcked;
  lot->run_until(kHorizon);
  const web100::Mib& mib = lot->sender(0).mib();

  Result r;
  r.cross = cross;
  r.fluid = fluid;
  r.fg_mbps = static_cast<double>(mib.ThruBytesAcked - acked0) * 8.0 /
              (kHorizon - kWarmup).to_seconds() / 1e6;
  const std::vector<double> goodputs = lot->goodputs_mbps(sim::Time::zero(), kHorizon);
  for (std::size_t i = 1; i < goodputs.size(); ++i) r.bg_mbps += goodputs[i];
  r.fg_stalls = mib.SendStall;
  r.fg_retrans = mib.PktsRetrans;
  return r;
}

/// Flow-observable fingerprint of a fluidized scale-mesh run: every packet
/// flow's MIB words plus every fluid aggregate's delivered-byte ledger.
std::vector<std::uint64_t> mesh_fingerprint(std::size_t partitions) {
  scenario::ScaleMeshConfig cfg;
  cfg.segments = 4;
  cfg.flows_per_segment = 2;
  cfg.cross_flows_per_segment = 1;
  cfg.fluid_local = true;
  scenario::TopologySpec spec = scenario::scale_mesh_spec(cfg);
  spec.execution.partitions = partitions;
  auto s = scenario::ScenarioBuilder{spec}.build(scenario::make_reno_factory());
  for (std::size_t i = 0; i < s->flow_count(); ++i) s->start_flow(i, sim::Time::zero());
  s->run_until(2_s);
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < s->flow_count(); ++i) {
    if (s->is_fluid(i)) {
      out.push_back(static_cast<std::uint64_t>(s->fluid_sink(i).delivered_bytes()));
    } else {
      const web100::Mib& mib = s->sender(i).mib();
      out.push_back(mib.ThruBytesAcked);
      out.push_back(mib.PktsRetrans);
      out.push_back(mib.SendStall);
    }
  }
  return out;
}

}  // namespace

Experiment make_ext_hybrid_fluid_experiment() {
  Experiment e;
  e.name = "ext_hybrid_fluid";
  e.title = "Hybrid fluid/packet background: foreground equivalence and partition parity";
  e.tolerances.fallback = {1e-9, 1e-3};
  e.tolerances.per_column["fg_stalls"] = {2.0, 0.0};
  e.tolerances.per_column["fg_retrans"] = {0.0, 0.25};
  e.run = [] {
    const std::vector<std::size_t> cross_loads{4, 5};
    std::vector<Result> results(2 * cross_loads.size());
    std::vector<std::vector<std::uint64_t>> prints(2);

    // Four population runs plus the two partition-parity runs, all
    // independent simulations.
    scenario::parallel_sweep(results.size() + prints.size(), [&](std::size_t i) {
      if (i < results.size()) {
        results[i] = run_population(cross_loads[i / 2], (i % 2) != 0);
      } else {
        const std::size_t partitions = i == results.size() ? 1 : 4;
        prints[i - results.size()] = mesh_fingerprint(partitions);
      }
    });

    metrics::Table table{
        {"cross_flows", "background", "fg_mbps", "fg_stalls", "fg_retrans", "bg_mbps"}};
    for (const auto& r : results) {
      table.add_row({r.cross, r.fluid ? "fluid" : "packet", r.fg_mbps, r.fg_stalls,
                     r.fg_retrans, r.bg_mbps});
    }

    bool within_tolerance = true;
    std::string detail;
    for (std::size_t c = 0; c < cross_loads.size(); ++c) {
      const Result& packet = results[2 * c];
      const Result& fluid = results[2 * c + 1];
      const double rel = packet.fg_mbps > 0.0 ? fluid.fg_mbps / packet.fg_mbps - 1.0 : 1.0;
      const unsigned long long stall_hi = std::max(packet.fg_stalls, fluid.fg_stalls);
      const unsigned long long stall_lo = std::min(packet.fg_stalls, fluid.fg_stalls);
      const double stall_budget =
          std::max(2.0, kGoodputTolerance * static_cast<double>(packet.fg_stalls));
      const bool ok = rel >= -kGoodputTolerance && rel <= kGoodputTolerance &&
                      static_cast<double>(stall_hi - stall_lo) <= stall_budget;
      within_tolerance = within_tolerance && ok;
      detail += strf("%scross=%zu fg %.2f->%.2f Mb/s (%+.1f%%), stalls %llu->%llu",
                     detail.empty() ? "" : "; ", packet.cross, packet.fg_mbps, fluid.fg_mbps,
                     rel * 100.0, packet.fg_stalls, fluid.fg_stalls);
    }

    const bool parity = !prints[0].empty() && prints[0] == prints[1];

    ExperimentResult res;
    res.table = std::move(table);
    res.reproduced = within_tolerance && parity;
    res.verdict =
        strf("%s; partitions 1 vs 4 byte-stable: %s", detail.c_str(), parity ? "yes" : "NO");
    return res;
  };
  return e;
}

}  // namespace rss::artifacts
