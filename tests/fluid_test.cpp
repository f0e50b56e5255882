// Hybrid fluid/packet engine: the AIMD rate ODE, the proportional-share
// queue coupling, integrator convergence under stride refinement, and the
// two headline guarantees — a fluidized cross-traffic aggregate leaves the
// foreground packet flow's goodput where the all-packet run put it, and
// fluid ticks never perturb the deterministic partition merge order.

#include "net/fluid.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/device.hpp"
#include "net/queue.hpp"
#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/presets.hpp"
#include "scenario/topology.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"
#include "web100/mib.hpp"

namespace rss {
namespace {

using namespace rss::sim::literals;
using net::FluidOptions;
using net::FluidQueueCoupling;
using net::FluidSink;
using net::FluidSource;

[[nodiscard]] FluidOptions base_options() {
  FluidOptions opt;
  opt.initial_rate = net::DataRate::mbps(10);
  opt.rtt = 100_ms;
  opt.stride = 1_ms;
  return opt;
}

// --- the rate ODE ---------------------------------------------------------

TEST(FluidSource, SilentBeforeStart) {
  FluidSource src{base_options(), "bg"};
  EXPECT_FALSE(src.started());
  EXPECT_EQ(src.rate_bps(), 0.0);
  src.begin_interval(0.001);
  EXPECT_EQ(src.offered_bytes(), 0.0);
  src.note_loss(sim::Time::zero());
  src.end_interval(1_ms, 0.001);
  EXPECT_EQ(src.rate_bps(), 0.0);  // loss and AI both ignored while closed
}

TEST(FluidSource, AdditiveIncreaseIsStrideExact) {
  // Post-slow-start additive increase is linear in time, so the
  // forward-Euler sum is exact: integrating 1 s at any stride lands on the
  // same rate.
  const auto integrate = [](double dt_s) {
    FluidSource src{base_options(), "bg"};
    src.start();
    src.note_loss(sim::Time::zero());  // leave slow start at half rate
    src.end_interval(sim::Time::zero(), dt_s);
    const int steps = static_cast<int>(std::lround(1.0 / dt_s));
    for (int i = 0; i < steps; ++i) {
      src.begin_interval(dt_s);
      src.end_interval(sim::Time::from_seconds(dt_s * (i + 1)), dt_s);
    }
    return src.rate_bps();
  };
  // Slope: one packet per RTT per RTT = 1500*8 / 0.1^2 = 1.2 Mbps/s.
  const double expected = 5e6 + 1.2e6;
  EXPECT_NEAR(integrate(0.001), expected, 1e-3 * expected);
  EXPECT_NEAR(integrate(0.00025), expected, 1e-3 * expected);
}

TEST(FluidSource, SlowStartDoublesPerRttUntilFirstLoss) {
  FluidSource src{base_options(), "bg"};
  src.start();
  // Ten strides of rtt/10 compound to exactly one doubling per RTT.
  for (int i = 0; i < 10; ++i) src.end_interval(sim::Time::zero(), 0.01);
  EXPECT_NEAR(src.rate_bps(), 20e6, 1e-6 * 20e6);
  // The first loss ends the exponential phase for good.
  src.note_loss(1_s);
  src.end_interval(1_s, 0.01);
  EXPECT_DOUBLE_EQ(src.rate_bps(), 10e6);
  for (int i = 0; i < 10; ++i) src.end_interval(2_s, 0.01);
  EXPECT_LT(src.rate_bps(), 10.5e6);  // additive now, not doubling
}

TEST(FluidSource, OneDecreasePerRttEpoch) {
  FluidSource src{base_options(), "bg"};
  src.start();
  ASSERT_EQ(src.rate_bps(), 10e6);

  src.note_loss(sim::Time::zero());
  src.note_loss(50_ms);  // same epoch: absorbed into the pending decrease
  src.end_interval(100_ms, 0.1);
  EXPECT_DOUBLE_EQ(src.rate_bps(), 5e6);

  src.note_loss(100_ms);  // a full RTT later: a fresh epoch
  src.end_interval(200_ms, 0.1);
  EXPECT_DOUBLE_EQ(src.rate_bps(), 2.5e6);
}

TEST(FluidSource, RateStaysBetweenFloorAndPeak) {
  FluidOptions opt = base_options();
  opt.peak_rate = net::DataRate::mbps(12);
  FluidSource src{opt, "bg"};
  src.start();

  // Halving forever bottoms out at one packet per RTT, never zero.
  const double floor = 1500.0 * 8.0 / 0.1;
  for (int i = 0; i < 40; ++i) {
    src.note_loss(sim::Time::seconds(i));
    src.end_interval(sim::Time::seconds(i), 0.001);
  }
  EXPECT_DOUBLE_EQ(src.rate_bps(), floor);

  // Additive increase forever pins at the peak.
  for (int i = 0; i < 100000; ++i) src.end_interval(100_s, 0.001);
  EXPECT_DOUBLE_EQ(src.rate_bps(), 12e6);
}

TEST(FluidSource, RejectsDegenerateOptions) {
  FluidOptions opt = base_options();
  opt.rtt = sim::Time::zero();
  EXPECT_THROW((FluidSource{opt, "bg"}), std::invalid_argument);
  opt = base_options();
  opt.decrease = 1.0;
  EXPECT_THROW((FluidSource{opt, "bg"}), std::invalid_argument);
  opt = base_options();
  opt.packet_bytes = 0;
  EXPECT_THROW((FluidSource{opt, "bg"}), std::invalid_argument);
}

// --- the queue coupling ---------------------------------------------------

struct CouplingHarness {
  sim::Simulation sim{1};
  net::NetDevice device;
  FluidQueueCoupling coupling;

  explicit CouplingHarness(net::DataRate rate = net::DataRate::mbps(100),
                           std::size_t ifq_packets = 100)
      : device{sim, rate, std::make_unique<net::DropTailQueue>(ifq_packets), "bneck"},
        coupling{device} {}
};

TEST(FluidCoupling, UnderloadLeavesNoBacklog) {
  CouplingHarness h;
  FluidOptions opt = base_options();
  opt.initial_rate = net::DataRate::mbps(50);
  FluidSource src{opt, "bg"};
  src.start();
  h.coupling.add_source(&src);

  src.begin_interval(0.001);
  h.coupling.step(1_ms, 0.001);
  src.end_interval(1_ms, 0.001);

  EXPECT_EQ(h.coupling.backlog_bytes(), 0.0);
  EXPECT_EQ(h.device.ifq().virtual_packets(), 0u);
  EXPECT_EQ(src.dropped_bytes(), 0.0);
  // Half the line is fluid, so packet slots stretch by that share.
  EXPECT_NEAR(h.device.fluid_share(), 0.5, 1e-9);
}

TEST(FluidCoupling, SaturatedQueueShedsProRataAndSignalsLoss) {
  CouplingHarness h{net::DataRate::mbps(100), /*ifq_packets=*/10};
  FluidOptions opt = base_options();
  opt.initial_rate = net::DataRate::mbps(400);
  opt.peak_rate = net::DataRate::mbps(800);
  FluidSource src{opt, "bg"};
  src.start();
  h.coupling.add_source(&src);

  // One 1 ms stride: 50 KB arrives against 12.5 KB of line capacity and
  // 15 KB of queue room — the remainder must be shed, not accumulated.
  src.begin_interval(0.001);
  h.coupling.step(1_ms, 0.001);
  const double rate_before = src.rate_bps();
  src.end_interval(1_ms, 0.001);

  EXPECT_GT(src.dropped_bytes(), 0.0);
  EXPECT_EQ(h.device.ifq().virtual_packets(), 10u);  // backlog capped at room
  EXPECT_LE(h.coupling.backlog_bytes(), 10 * 1500.0);
  EXPECT_DOUBLE_EQ(src.rate_bps(), rate_before * 0.5);  // loss signal landed
}

TEST(FluidCoupling, VirtualBacklogGatesPacketAdmission) {
  net::DropTailQueue queue{4};
  queue.set_virtual_backlog(3, 3 * 1500);
  net::Packet p;
  p.payload_bytes = 1500;
  EXPECT_TRUE(queue.enqueue(p));   // 1 real + 3 virtual = capacity
  EXPECT_FALSE(queue.enqueue(p));  // full: fluid pressure causes the drop
  EXPECT_EQ(queue.byte_depth(), queue.size_bytes() + 3u * 1500u);
  EXPECT_NEAR(queue.fill_fraction(), 1.0, 1e-9);
}

// --- integrator convergence -----------------------------------------------

/// Drive source + coupling by hand (no scheduler) for `horizon_s` simulated
/// seconds at stride `dt_s`, and report delivered bytes. The AIMD loop
/// oscillates against the queue cap, so this exercises the full ODE, not
/// just the linear ramp.
[[nodiscard]] double delivered_after(double dt_s, double horizon_s) {
  CouplingHarness h{net::DataRate::mbps(100), 100};
  FluidOptions opt = base_options();
  opt.initial_rate = net::DataRate::mbps(40);
  opt.peak_rate = net::DataRate::mbps(200);
  opt.rtt = 40_ms;
  FluidSource src{opt, "bg"};
  src.start();
  h.coupling.add_source(&src);

  const int steps = static_cast<int>(std::lround(horizon_s / dt_s));
  for (int i = 0; i < steps; ++i) {
    const sim::Time now = sim::Time::from_seconds(dt_s * (i + 1));
    src.begin_interval(dt_s);
    h.coupling.step(now, dt_s);
    src.end_interval(now, dt_s);
  }
  FluidSink sink{src};
  return sink.delivered_bytes();
}

TEST(FluidIntegrator, StrideRefinementConverges) {
  const double coarse = delivered_after(0.002, 4.0);
  const double mid = delivered_after(0.001, 4.0);
  const double fine = delivered_after(0.00025, 4.0);
  ASSERT_GT(fine, 0.0);
  // Refining the stride 8x moves the answer by at most a few percent: the
  // integrator is consistent, not stride-sensitive.
  EXPECT_NEAR(coarse / fine, 1.0, 0.05);
  EXPECT_NEAR(mid / fine, 1.0, 0.05);
  // And the delivered volume is physical: never above the line rate.
  EXPECT_LE(fine, 100e6 / 8.0 * 4.0 * 1.001);
}

// --- fluid vs packet equivalence ------------------------------------------

/// Foreground goodput (Mbit/s) of parking-lot flow 0 over the measurement
/// window, with cross traffic either packet or fluid.
[[nodiscard]] double foreground_goodput(bool fluid_cross, sim::Time warmup,
                                        sim::Time horizon) {
  scenario::ParkingLotConfig cfg;
  cfg.hops = 1;  // single-bottleneck dumbbell
  cfg.cross_flows_per_hop = 5;
  cfg.hop_delays = {20_ms};
  cfg.access_rate = net::DataRate::mbps(100);
  cfg.fluid_cross = fluid_cross;
  auto lot = scenario::ScenarioBuilder{scenario::parking_lot_spec(cfg)}.build(
      scenario::make_reno_factory());
  for (std::size_t i = 0; i < lot->flow_count(); ++i) lot->start_flow(i, sim::Time::zero());

  lot->run_until(warmup);
  const std::uint64_t acked0 = lot->sender(0).mib().ThruBytesAcked;
  lot->run_until(horizon);
  const std::uint64_t acked1 = lot->sender(0).mib().ThruBytesAcked;
  return static_cast<double>(acked1 - acked0) * 8.0 /
         (horizon - warmup).to_seconds() / 1e6;
}

TEST(FluidEquivalence, ForegroundGoodputMatchesAllPacketRun) {
  // The window spans many AIMD sawtooth periods: shorter windows alias the
  // sawtooth phase and make the comparison noisy rather than wrong.
  const double packet = foreground_goodput(false, 5_s, 180_s);
  const double fluid = foreground_goodput(true, 5_s, 180_s);
  ASSERT_GT(packet, 0.0);
  // The fluidized background must leave the foreground flow within the
  // artifact's equivalence budget of the all-packet run.
  EXPECT_NEAR(fluid / packet, 1.0, 0.05)
      << "packet=" << packet << " Mbps, fluid=" << fluid << " Mbps";
}

// --- partition determinism ------------------------------------------------

/// Flow-observable fingerprint covering both models: MIB words for packet
/// flows, the delivered-byte ledger for fluid aggregates.
[[nodiscard]] std::vector<std::uint64_t> fingerprint(scenario::Scenario& s) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < s.flow_count(); ++i) {
    if (s.is_fluid(i)) {
      out.push_back(static_cast<std::uint64_t>(s.fluid_sink(i).delivered_bytes()));
      out.push_back(0);
      out.push_back(0);
    } else {
      const web100::Mib& mib = s.sender(i).mib();
      out.push_back(mib.ThruBytesAcked);
      out.push_back(mib.PktsRetrans);
      out.push_back(mib.SendStall);
    }
  }
  return out;
}

TEST(FluidPartitionParity, FluidTicksDoNotPerturbMergeOrder) {
  scenario::ScaleMeshConfig cfg;
  cfg.segments = 4;
  cfg.flows_per_segment = 2;
  cfg.cross_flows_per_segment = 1;
  cfg.fluid_local = true;
  scenario::TopologySpec spec = scenario::scale_mesh_spec(cfg);

  std::vector<std::vector<std::uint64_t>> prints;
  for (const std::size_t partitions : {std::size_t{1}, std::size_t{4}}) {
    spec.execution.partitions = partitions;
    auto s = scenario::ScenarioBuilder{spec}.build(scenario::make_reno_factory());
    if (partitions > 1) {
      ASSERT_GT(s->partition_count(), 1u);
    }
    std::size_t fluid_flows = 0;
    for (std::size_t i = 0; i < s->flow_count(); ++i) fluid_flows += s->is_fluid(i);
    ASSERT_EQ(fluid_flows, cfg.segments * cfg.flows_per_segment);
    for (std::size_t i = 0; i < s->flow_count(); ++i) s->start_flow(i, sim::Time::zero());
    s->run_until(1_s);
    prints.push_back(fingerprint(*s));
  }
  EXPECT_EQ(prints[0], prints[1]);
  bool progressed = false;
  for (const std::uint64_t v : prints[0]) progressed = progressed || v != 0;
  EXPECT_TRUE(progressed) << "parity run transferred no data — vacuous comparison";
}

}  // namespace
}  // namespace rss
