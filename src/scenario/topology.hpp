#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/codel.hpp"
#include "net/data_rate.hpp"
#include "net/fluid.hpp"
#include "net/queue.hpp"
#include "scenario/execution.hpp"
#include "sim/time.hpp"
#include "tcp/congestion_control.hpp"
#include "tcp/tcp_receiver.hpp"
#include "tcp/tcp_sender.hpp"

namespace rss::scenario {

/// Factory for the congestion-control algorithm under test (one instance
/// per call; scenarios with a single flow population use this form).
using CcFactory = std::function<std::unique_ptr<tcp::CongestionControl>()>;

/// Indexed factory: called once per flow with the flow's index in the
/// TopologySpec, so mixed populations (e.g. one RSS flow among Renos) work
/// on every scenario. This is the canonical factory type every builder and
/// preset takes; adapt a zero-arg CcFactory with uniform_cc().
using FlowCcFactory =
    std::function<std::unique_ptr<tcp::CongestionControl>(std::size_t flow_index)>;

/// Adapt a zero-arg factory to the indexed form (every flow gets an
/// identically-configured instance).
[[nodiscard]] inline FlowCcFactory uniform_cc(CcFactory factory) {
  if (!factory) return {};
  return [factory = std::move(factory)](std::size_t) { return factory(); };
}

/// Queue discipline for one NetDevice's interface queue.
enum class QueueDiscipline {
  kDropTail,  ///< tail-drop FIFO (Linux txqueuelen, the paper's IFQ)
  kRed,       ///< Random Early Detection (router AQM experiments)
  kCodel,     ///< CoDel sojourn-time AQM (RFC 8289)
};

/// One endpoint NIC of a duplex link. Rates and IFQ depths are
/// per-endpoint because real paths are asymmetric (the paper's host NIC is
/// 100 Mbit/s against a 1 Gbit/s WAN side).
struct DeviceSpec {
  net::DataRate rate{net::DataRate::gbps(1)};
  std::size_t ifq_packets{1000};
  QueueDiscipline qdisc{QueueDiscipline::kDropTail};
  net::RedQueue::Options red{};  ///< honoured when qdisc == kRed (capacity taken from ifq_packets)
  /// Honoured when qdisc == kCodel (capacity taken from ifq_packets).
  net::CodelQueue::Options codel{};
  /// DCTCP-style step marking: CE-mark ECT packets when the instantaneous
  /// occupancy reaches this many packets (0 = off). Works on every qdisc.
  std::size_t ecn_threshold{0};
  std::string name{};            ///< empty -> "<node>-><peer>"
};

/// A full-duplex link between two named nodes: one NetDevice is created at
/// each end, wired through a PointToPointLink with the given one-way
/// propagation delay.
struct LinkSpec {
  std::string a;
  std::string b;
  sim::Time delay{sim::Time::milliseconds(1)};
  DeviceSpec a_dev{};
  DeviceSpec b_dev{};
};

/// Traffic class of a flow: full packet-level TCP, or a fluid rate-ODE
/// aggregate folded into bottleneck queues at an integration stride.
enum class TrafficModel {
  kPacket,  ///< packet-level TCP (default; the paper's foreground flows)
  kFluid,   ///< AIMD rate ODE + virtual queue backlog (background aggregates)
};

/// A bulk TCP flow between two named endpoint nodes.
struct FlowSpec {
  std::string src;
  std::string dst;
  /// 0 = auto (flow index + 1). Must be unique among flows sharing an
  /// endpoint node (that is where the demux happens).
  std::uint32_t flow_id{0};
  /// When set, an unbounded bulk transfer is scheduled at this time during
  /// build; when unset, drive the flow manually via Scenario::start_flow.
  std::optional<sim::Time> start{};
  tcp::TcpSender::Options sender{};      ///< flow/dst ids overwritten by the builder
  tcp::TcpReceiver::Options receiver{};  ///< flow/peer ids overwritten by the builder
  /// Negotiate ECN on this flow: data packets go out ECT, the receiver
  /// echoes CE marks (RFC 8257 discipline), and the sender feeds the echo
  /// to its congestion control. The builder copies this into both the
  /// sender and receiver options.
  bool ecn{false};
  /// Attach a Web100-style PollingAgent to this flow's sender MIB.
  bool web100{false};
  sim::Time web100_poll_period{sim::Time::milliseconds(100)};
  /// Packet (default) or fluid. Fluid flows ignore sender/receiver/web100
  /// and take their dynamics from `fluid`; spec files reject the combination
  /// outright.
  TrafficModel model{TrafficModel::kPacket};
  /// Fluid aggregate parameters, honoured when model == kFluid. An unset
  /// (zero) rtt is derived by the builder as twice the route's one-way
  /// delay; a zero peak_rate is capped at the route's minimum line rate.
  net::FluidOptions fluid{};
};

/// A network described as data: nodes, duplex links, flows. Build it with
/// ScenarioBuilder; the presets (WanPath, Dumbbell, ParkingLot,
/// MultiBottleneckChain) are thin emitters of this struct.
struct TopologySpec {
  std::vector<std::string> nodes;
  std::vector<LinkSpec> links;
  std::vector<FlowSpec> flows;
  std::uint64_t seed{1};
  /// How to execute the built scenario: partition count and strategy,
  /// thread budget. Defaults reproduce the classic single-scheduler run.
  ExecutionPolicy execution{};
};

/// Typed spec-validation error. Derives from std::invalid_argument so
/// call sites that predate the builder (catching invalid_argument) keep
/// working; new code can switch on code().
class TopologyError : public std::invalid_argument {
 public:
  enum class Code {
    kEmptyName,        ///< node with an empty name
    kDuplicateNode,    ///< two nodes share a name
    kUnknownEndpoint,  ///< link or flow references an undeclared node
    kSelfLoop,         ///< link (or flow) with identical endpoints
    kDuplicateLink,    ///< second link between the same node pair
    kDuplicateFlowId,  ///< two flows with the same id share an endpoint node
    kUnroutableFlow,   ///< no path between a flow's endpoints
    kNullCcFactory,    ///< build() called with an empty factory
    kBadExecution,     ///< invalid ExecutionPolicy (e.g. partitions == 0)
    kZeroLatencyCut,   ///< a cross-partition link has zero latency (no lookahead)
    kFluidRouteCut,    ///< a partitioning splits a fluid flow's route across partitions
  };

  TopologyError(Code code, const std::string& what)
      : std::invalid_argument(what), code_{code} {}

  [[nodiscard]] Code code() const { return code_; }

 private:
  Code code_;
};

/// Static forwarding tables for every node of a validated spec, computed
/// by breadth-first search (minimum hop count; ties broken by link
/// declaration order, so routes are deterministic for a given spec).
struct RouteTable {
  static constexpr std::size_t kUnreachable = std::numeric_limits<std::size_t>::max();

  /// next_device[n][d]: egress device index on node n for packets to node
  /// d (indices into the spec's node list; device indices follow link
  /// declaration order per node). kUnreachable when no path exists;
  /// next_device[n][n] is kUnreachable by convention.
  std::vector<std::vector<std::size_t>> next_device;

  [[nodiscard]] std::size_t egress(std::size_t from, std::size_t to) const {
    return next_device.at(from).at(to);
  }
  [[nodiscard]] bool reachable(std::size_t from, std::size_t to) const {
    return egress(from, to) != kUnreachable;
  }
  /// Hop count of the shortest path (kUnreachable when disconnected).
  [[nodiscard]] std::size_t hops(std::size_t from, std::size_t to) const;

  /// The adjacency the search ran on: per node, (neighbor node, device
  /// index) pairs in link declaration order.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> adjacency;
};

/// Structural validation of nodes/links/flows (everything except
/// routability, which needs the routes). Throws TopologyError.
void validate_topology(const TopologySpec& spec);

/// All-pairs shortest-path routes for a structurally valid spec.
[[nodiscard]] RouteTable compute_routes(const TopologySpec& spec);

/// Index of a node name in spec.nodes, or nullopt.
[[nodiscard]] std::optional<std::size_t> node_index(const TopologySpec& spec,
                                                    std::string_view name);

}  // namespace rss::scenario
