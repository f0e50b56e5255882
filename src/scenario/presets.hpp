#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "scenario/builder.hpp"
#include "scenario/topology.hpp"

namespace rss::scenario {

/// Parking-lot topology: a chain of `hops` bottleneck links, one
/// end-to-end flow crossing all of them, and `cross_flows_per_hop`
/// single-hop cross flows entering and leaving at every hop — the classic
/// multi-bottleneck fairness stressor (an end-to-end flow pays the loss
/// rate of every hop; per-hop flows pay one).
///
///   src ── R0 ══ hop0 ══ R1 ══ hop1 ══ R2 ══ ... ══ RH ── dst
///          │╲          ╱ │╲           ╱
///         xs0_k     xd0_k xs1_k    xd1_k        (per-hop cross traffic)
///
/// Per-hop delays may be heterogeneous (`hop_delays`), so cross flows see
/// different RTTs — the background-RTT-heterogeneity axis of the fairness
/// study.
///
/// Flow order: index 0 is the end-to-end flow; cross flows follow
/// hop-major (hop 0's cross flows, then hop 1's, ...).
class ParkingLot {
 public:
  struct Config {
    std::size_t hops{3};
    std::size_t cross_flows_per_hop{1};
    std::uint64_t seed{1};
    /// Full execution policy (partitions, thread budget).
    ExecutionPolicy execution{};
    net::DataRate bottleneck_rate{net::DataRate::mbps(100)};
    net::DataRate access_rate{net::DataRate::gbps(1)};
    sim::Time access_delay{sim::Time::milliseconds(1)};
    /// One-way propagation delay per hop. Empty = `hops` copies of
    /// default_hop_delay; otherwise the size must equal `hops`.
    std::vector<sim::Time> hop_delays{};
    sim::Time default_hop_delay{sim::Time::milliseconds(10)};
    std::size_t sender_ifq_packets{100};   ///< per-host NIC queue
    std::size_t router_queue_packets{100}; ///< per-hop bottleneck queue
    std::uint32_t mss{1460};
    tcp::TcpSender::Options sender{};      ///< ids/mss overwritten per flow
    tcp::TcpReceiver::Options receiver{};  ///< ids overwritten per flow
    /// Model the per-hop cross traffic as fluid aggregates instead of
    /// packet flows (the hybrid fluid/packet configuration); the
    /// end-to-end flow always stays packet-level.
    bool fluid_cross{false};
    /// Fluid parameters for the cross aggregates when fluid_cross is set
    /// (peak auto-capped at the route line rate, RTT derived if zero).
    net::FluidOptions fluid_options{};
  };

  [[nodiscard]] static TopologySpec make_spec(const Config& config);

  ParkingLot(Config config, const FlowCcFactory& cc_factory);

  /// Start flow `i`'s unbounded bulk transfer at `start`.
  void start_flow(std::size_t i, sim::Time start) { scenario_->start_flow(i, start); }
  /// Start every flow (end-to-end and all cross traffic) at `start`.
  void start_all(sim::Time start);

  [[nodiscard]] sim::Simulation& simulation() { return scenario_->simulation(); }
  [[nodiscard]] Scenario& scenario() { return *scenario_; }
  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] std::size_t flow_count() const { return scenario_->flow_count(); }
  /// The end-to-end flow's sender (flow 0).
  [[nodiscard]] tcp::TcpSender& end_to_end() { return scenario_->sender(0); }
  /// Cross flow `k` of hop `h`.
  [[nodiscard]] tcp::TcpSender& cross_sender(std::size_t hop, std::size_t k) {
    return scenario_->sender(1 + hop * cfg_.cross_flows_per_hop + k);
  }
  [[nodiscard]] net::Node& router(std::size_t index) {
    return scenario_->node("r" + std::to_string(index));
  }
  /// Egress device of hop `h` (on router h toward router h+1) — the h-th
  /// bottleneck queue.
  [[nodiscard]] net::NetDevice& bottleneck(std::size_t hop);

  [[nodiscard]] std::vector<double> goodputs_mbps(sim::Time t0, sim::Time t1) const {
    return scenario_->goodputs_mbps(t0, t1);
  }

 private:
  Config cfg_;
  std::unique_ptr<Scenario> scenario_;
};

/// Multi-bottleneck chain with per-flow RTT heterogeneity: a chain of
/// routers whose hop rates may all differ, and N long flows that enter at
/// staggered routers (flow i at router i mod hops) but all exit at the far
/// end — so flows traverse different hop counts, see different RTTs, and
/// contend on the shared tail of the chain.
///
///   s0 ─ R0 ══ rate0 ══ R1 ══ rate1 ══ R2 ══ rate2 ══ R3 ─ d0,d1,d2
///        s1 ─────┘            s2 ─────────┘
class MultiBottleneckChain {
 public:
  struct Config {
    std::size_t flows{3};
    /// Hop rates, fastest-to-slowest or any mix; size defines the chain
    /// length (must be >= 1).
    std::vector<net::DataRate> hop_rates{net::DataRate::mbps(100),
                                         net::DataRate::mbps(80),
                                         net::DataRate::mbps(60)};
    /// One-way delay per hop. Empty = hop_rates.size() copies of
    /// default_hop_delay; otherwise the size must match hop_rates.
    std::vector<sim::Time> hop_delays{};
    sim::Time default_hop_delay{sim::Time::milliseconds(10)};
    std::uint64_t seed{1};
    /// Full execution policy (partitions, thread budget).
    ExecutionPolicy execution{};
    net::DataRate access_rate{net::DataRate::gbps(1)};
    sim::Time access_delay{sim::Time::milliseconds(1)};
    std::size_t sender_ifq_packets{100};
    std::size_t router_queue_packets{100};
    std::uint32_t mss{1460};
    tcp::TcpSender::Options sender{};
    tcp::TcpReceiver::Options receiver{};
  };

  [[nodiscard]] static TopologySpec make_spec(const Config& config);

  MultiBottleneckChain(Config config, const FlowCcFactory& cc_factory);

  void start_flow(std::size_t i, sim::Time start) { scenario_->start_flow(i, start); }

  [[nodiscard]] sim::Simulation& simulation() { return scenario_->simulation(); }
  [[nodiscard]] Scenario& scenario() { return *scenario_; }
  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] std::size_t flow_count() const { return scenario_->flow_count(); }
  [[nodiscard]] tcp::TcpSender& sender(std::size_t i) { return scenario_->sender(i); }
  /// Egress device of hop `h` (on router h toward router h+1).
  [[nodiscard]] net::NetDevice& bottleneck(std::size_t hop);
  /// Hop count flow `i` traverses (router segments only, excluding access
  /// links) — differs per flow by construction.
  [[nodiscard]] std::size_t flow_hops(std::size_t i) const;

  [[nodiscard]] std::vector<double> goodputs_mbps(sim::Time t0, sim::Time t1) const {
    return scenario_->goodputs_mbps(t0, t1);
  }

 private:
  Config cfg_;
  std::unique_ptr<Scenario> scenario_;
};

/// Scale preset: a chain of `segments` independent dumbbells stitched
/// together by long-haul trunks — the workload the partitioned engine is
/// built for. Each segment is a classic 4-node dumbbell carrying
/// `flows_per_segment` local flows (flows share their segment's host pair,
/// so node count — and the O(nodes^2) route table — stays tiny while the
/// flow population scales to 100k+); `cross_flows_per_segment` flows per
/// trunk cross into the next segment and exercise the partition handoff.
///
///   hL0 ─ rL0 ══ rR0 ─ hR0      hL1 ─ rL1 ══ rR1 ─ hR1
///                  └───── trunk (inter_delay) ─────┘   ...
///
/// The trunks carry the largest latency in the topology, so the builder's
/// latency-guided partitioning (ExecutionPolicy::partitions > 1) cuts
/// exactly there and the trunk delay becomes the conservative-lookahead
/// window. Defaults describe the 100k-flow configuration from the bench;
/// tests use small explicit configs.
class ScaleMesh {
 public:
  struct Config {
    std::size_t segments{8};
    std::size_t flows_per_segment{12500};   ///< local hL_i -> hR_i flows
    std::size_t cross_flows_per_segment{4}; ///< hL_i -> hR_{i+1}, per trunk
    std::uint64_t seed{1};
    /// Full execution policy — set execution.partitions to run segments in
    /// parallel (the trunk delay bounds the lookahead window).
    ExecutionPolicy execution{};
    net::DataRate access_rate{net::DataRate::gbps(10)};
    net::DataRate bottleneck_rate{net::DataRate::gbps(1)};
    net::DataRate trunk_rate{net::DataRate::gbps(10)};
    sim::Time access_delay{sim::Time::microseconds(50)};
    sim::Time bottleneck_delay{sim::Time::milliseconds(5)};
    /// One-way trunk delay between adjacent segments — the partition cut
    /// latency, hence the lookahead bound. Must be >= 1ns to partition.
    sim::Time inter_delay{sim::Time::milliseconds(10)};
    std::size_t sender_ifq_packets{100};
    std::size_t router_queue_packets{200};
    std::uint32_t mss{1460};
    /// When set, every flow's bulk transfer starts at this time during
    /// build (spec-declared starts); when unset, drive flows manually.
    std::optional<sim::Time> start_all{};
    tcp::TcpSender::Options sender{};      ///< ids/mss overwritten per flow
    tcp::TcpReceiver::Options receiver{};  ///< ids overwritten per flow
    /// Model each segment's local flows as fluid aggregates; trunk cross
    /// flows stay packet-level (they are what exercises the handoff).
    bool fluid_local{false};
    /// Fluid parameters for the local aggregates when fluid_local is set.
    net::FluidOptions fluid_options{};
  };

  [[nodiscard]] static TopologySpec make_spec(const Config& config);

  ScaleMesh(Config config, const FlowCcFactory& cc_factory);

  /// Start flow `i`'s unbounded bulk transfer at `start`.
  void start_flow(std::size_t i, sim::Time start) { scenario_->start_flow(i, start); }

  [[nodiscard]] Scenario& scenario() { return *scenario_; }
  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] std::size_t flow_count() const { return scenario_->flow_count(); }
  [[nodiscard]] tcp::TcpSender& sender(std::size_t i) { return scenario_->sender(i); }
  /// Flow index of local flow `k` within segment `s` (segment-major,
  /// local flows first, then all cross flows trunk-major).
  [[nodiscard]] std::size_t local_flow(std::size_t segment, std::size_t k) const {
    return segment * cfg_.flows_per_segment + k;
  }
  /// Flow index of cross flow `k` on the trunk leaving segment `s`.
  [[nodiscard]] std::size_t cross_flow(std::size_t segment, std::size_t k) const {
    return cfg_.segments * cfg_.flows_per_segment +
           segment * cfg_.cross_flows_per_segment + k;
  }
  /// The bottleneck egress device of segment `s` (rL_s toward rR_s).
  [[nodiscard]] net::NetDevice& bottleneck(std::size_t segment);

  [[nodiscard]] std::vector<double> goodputs_mbps(sim::Time t0, sim::Time t1) const {
    return scenario_->goodputs_mbps(t0, t1);
  }

 private:
  Config cfg_;
  std::unique_ptr<Scenario> scenario_;
};

}  // namespace rss::scenario
