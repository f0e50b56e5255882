#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "net/data_rate.hpp"
#include "scenario/execution.hpp"
#include "scenario/topology.hpp"
#include "sim/time.hpp"
#include "tcp/tcp_receiver.hpp"
#include "tcp/tcp_sender.hpp"

namespace rss::scenario {

// The classic topologies as TopologySpec emitters. Each preset is a config
// struct plus one function that validates it (std::invalid_argument) and
// returns the spec; build it with `ScenarioBuilder{spec}.build(cc)` and
// reach the parts by the node names documented on each function.

/// The paper's testbed in a box (§4): a host whose 100 Mbps NIC (with a
/// 100-packet interface queue) is the path bottleneck, talking across a
/// 60 ms-RTT WAN to a fast receiver. One bulk TCP flow, Web100-style
/// polling of its MIB.
///
///     sender ── NIC(100 Mbps, IFQ 100) ══ 30 ms ══ NIC(1 Gbps) ── receiver
///
/// The sender NIC, `device("sender", "receiver")`, is where send-stalls
/// happen; everything the paper measures is observable through
/// `sender(0).mib()` and `agent(0)`.
struct WanPathConfig {
  core::CanonicalPath path{};
  std::uint64_t seed{1};
  /// Execution policy (partitions, thread budget); see
  /// scenario::ExecutionPolicy.
  ExecutionPolicy execution{};
  std::uint32_t flow_id{1};
  std::size_t receiver_ifq_packets{1000};
  sim::Time web100_poll_period{sim::Time::milliseconds(100)};
  bool enable_web100{true};
  tcp::TcpReceiver::Options receiver{};  ///< flow/peer ids are overwritten
  tcp::TcpSender::Options sender{};      ///< flow/dst/mss are overwritten
};
[[nodiscard]] TopologySpec wan_path_spec(const WanPathConfig& config);

/// Classic dumbbell: N senders behind a shared bottleneck router, N
/// receivers on the far side. Used for the multi-flow friendliness
/// experiments (EXT-FAIR) and for exercising *network* (router-queue)
/// congestion as opposed to the WAN path's *host* (IFQ) congestion.
///
///   S1 ─┐                              ┌─ R1
///   S2 ─┼── L ══ bottleneck, delay ══ R ┼─ R2
///   SN ─┘                              └─ RN
///
/// Nodes are "routerL", "routerR", "sender<i>" and "receiver<i>"; the
/// shared bottleneck is `device("routerL", "routerR")`.
struct DumbbellConfig {
  std::size_t flows{2};  ///< must be >= 1
  std::uint64_t seed{1};
  /// Execution policy (partitions, thread budget); see
  /// scenario::ExecutionPolicy.
  ExecutionPolicy execution{};
  net::DataRate access_rate{net::DataRate::gbps(1)};
  net::DataRate bottleneck_rate{net::DataRate::mbps(100)};
  sim::Time access_delay{sim::Time::milliseconds(1)};
  sim::Time bottleneck_delay{sim::Time::milliseconds(28)};  ///< ~60 ms RTT total
  std::size_t sender_ifq_packets{100};      ///< per-host NIC queue
  std::size_t router_queue_packets{100};    ///< shared bottleneck queue
  std::uint32_t mss{1460};
  tcp::TcpSender::Options sender{};         ///< ids/mss overwritten per flow
  tcp::TcpReceiver::Options receiver{};     ///< ids overwritten per flow
};
[[nodiscard]] TopologySpec dumbbell_spec(const DumbbellConfig& config);

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
/// Routers are "r0".."r<hops>"; hop h's bottleneck is
/// `device("r<h>", "r<h+1>")`. Flow order: index 0 is the end-to-end flow;
/// cross flows follow hop-major (hop 0's cross flows, then hop 1's, ...).
struct ParkingLotConfig {
  std::size_t hops{3};  ///< must be >= 1
  std::size_t cross_flows_per_hop{1};
  std::uint64_t seed{1};
  /// Full execution policy (partitions, thread budget).
  ExecutionPolicy execution{};
  net::DataRate bottleneck_rate{net::DataRate::mbps(100)};
  net::DataRate access_rate{net::DataRate::gbps(1)};
  sim::Time access_delay{sim::Time::milliseconds(1)};
  /// One-way propagation delay per hop. Empty = 10 ms on every hop;
  /// otherwise the size must equal `hops`.
  std::vector<sim::Time> hop_delays{};
  std::size_t sender_ifq_packets{100};   ///< per-host NIC queue
  std::size_t router_queue_packets{100}; ///< per-hop bottleneck queue
  std::uint32_t mss{1460};
  tcp::TcpSender::Options sender{};      ///< ids/mss overwritten per flow
  tcp::TcpReceiver::Options receiver{};  ///< ids overwritten per flow
  /// Model the per-hop cross traffic as fluid aggregates with default
  /// FluidOptions (the hybrid fluid/packet configuration); the end-to-end
  /// flow always stays packet-level.
  bool fluid_cross{false};
};
[[nodiscard]] TopologySpec parking_lot_spec(const ParkingLotConfig& config);

/// Multi-bottleneck chain with per-flow RTT heterogeneity: a chain of
/// routers whose hop rates may all differ, and N long flows that enter at
/// staggered routers (flow i at router i mod hops) but all exit at the far
/// end — so flows traverse different hop counts, see different RTTs, and
/// contend on the shared tail of the chain.
///
///   s0 ─ R0 ══ rate0 ══ R1 ══ rate1 ══ R2 ══ rate2 ══ R3 ─ d0,d1,d2
///        s1 ─────┘            s2 ─────────┘
///
/// Routers are "r0".."r<hops>", flow i runs "s<i>" -> "d<i>".
struct MultiBottleneckChainConfig {
  std::size_t flows{3};  ///< must be >= 1
  /// Hop rates, fastest-to-slowest or any mix; size defines the chain
  /// length (must be >= 1).
  std::vector<net::DataRate> hop_rates{net::DataRate::mbps(100),
                                       net::DataRate::mbps(80),
                                       net::DataRate::mbps(60)};
  /// One-way delay per hop. Empty = 10 ms on every hop; otherwise the size
  /// must match hop_rates.
  std::vector<sim::Time> hop_delays{};
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
[[nodiscard]] TopologySpec multi_bottleneck_chain_spec(const MultiBottleneckChainConfig& config);

/// Scale preset: a chain of `segments` independent dumbbells stitched
/// together by 10 Gbit/s, 10 ms long-haul trunks — the workload the
/// partitioned engine is built for. Each segment is a classic 4-node
/// dumbbell carrying `flows_per_segment` local flows (flows share their
/// segment's host pair, so node count — and the O(nodes^2) route table —
/// stays tiny while the flow population scales to 100k+);
/// `cross_flows_per_segment` flows per trunk cross into the next segment
/// and exercise the partition handoff.
///
///   hL0 ─ rL0 ══ rR0 ─ hR0      hL1 ─ rL1 ══ rR1 ─ hR1
///                  └───── trunk (10 ms) ─────┘   ...
///
/// The trunks carry the largest latency in the topology, so the builder's
/// latency-guided partitioning (ExecutionPolicy::partitions > 1) cuts
/// exactly there and the trunk delay becomes the conservative-lookahead
/// window. Segment s's bottleneck is `device("rL<s>", "rR<s>")`. Flow
/// order: local flows segment-major, then cross flows trunk-major. No flow
/// has a declared start. Defaults describe a 100k-flow configuration; tests
/// use small explicit configs.
struct ScaleMeshConfig {
  std::size_t segments{8};                ///< must be >= 1
  std::size_t flows_per_segment{12500};   ///< local hL_i -> hR_i flows; >= 1
  std::size_t cross_flows_per_segment{4}; ///< hL_i -> hR_{i+1}, per trunk
  std::uint64_t seed{1};
  /// Full execution policy — set execution.partitions to run segments in
  /// parallel (the trunk delay bounds the lookahead window).
  ExecutionPolicy execution{};
  net::DataRate access_rate{net::DataRate::gbps(10)};
  net::DataRate bottleneck_rate{net::DataRate::gbps(1)};
  sim::Time access_delay{sim::Time::microseconds(50)};
  sim::Time bottleneck_delay{sim::Time::milliseconds(5)};
  std::size_t sender_ifq_packets{100};
  std::size_t router_queue_packets{200};
  std::uint32_t mss{1460};
  tcp::TcpSender::Options sender{};      ///< ids/mss overwritten per flow
  tcp::TcpReceiver::Options receiver{};  ///< ids overwritten per flow
  /// Model each segment's local flows as fluid aggregates with default
  /// FluidOptions; trunk cross flows stay packet-level (they are what
  /// exercises the handoff).
  bool fluid_local{false};
};
[[nodiscard]] TopologySpec scale_mesh_spec(const ScaleMeshConfig& config);

}  // namespace rss::scenario
