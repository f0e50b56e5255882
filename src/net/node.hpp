#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/device.hpp"
#include "net/packet.hpp"
#include "sim/simulation.hpp"

namespace rss::net {

/// A host or router: a set of NetDevices plus a static forwarding table
/// (destination node id -> egress device) and per-flow protocol handlers.
///
/// Receive path: device -> Node::on_receive -> if the packet is addressed
/// here, demux to the flow handler; otherwise forward out the routed
/// device. Forwarding drops (full egress queue at a router) are ordinary
/// network drops; only *locally originated* sends report stalls to the
/// sender — mirroring the kernel, where NET_XMIT_CN reaches the socket that
/// wrote, not transit traffic.
class Node {
 public:
  using FlowHandler = std::function<void(const Packet&)>;

  enum class SendResult {
    kSent,     ///< admitted to the egress IFQ
    kStalled,  ///< egress IFQ full (local congestion / send-stall)
    kNoRoute,  ///< no forwarding entry for the destination
  };

  Node(sim::Simulation& simulation, std::uint32_t id, std::string name);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Create and own a device. Returned reference is stable for the node's
  /// lifetime (devices are never removed).
  NetDevice& add_device(DataRate rate, std::unique_ptr<PacketQueue> ifq,
                        std::string device_name = {});

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t device_count() const { return devices_.size(); }
  [[nodiscard]] NetDevice& device(std::size_t index) { return *devices_.at(index); }
  [[nodiscard]] const NetDevice& device(std::size_t index) const { return *devices_.at(index); }

  /// Route packets destined to `dst_node` out of `device(index)`.
  void set_route(std::uint32_t dst_node, std::size_t device_index);
  /// Fallback egress when no specific route matches.
  void set_default_route(std::size_t device_index);
  /// Installed egress device index for `dst_node`, or nullopt when only
  /// the default route (or nothing) would match — forwarding-table
  /// introspection for topology-builder tests and debugging.
  [[nodiscard]] std::optional<std::size_t> route(std::uint32_t dst_node) const;

  /// Register the handler for packets of a given flow addressed to this
  /// node. A flow may have at most one handler.
  void register_flow_handler(std::uint32_t flow_id, FlowHandler handler);

  /// Originate a packet from this node (stamps src automatically).
  SendResult send(Packet p);

  [[nodiscard]] std::uint64_t forwarded_packets() const { return forwarded_; }
  [[nodiscard]] std::uint64_t delivered_packets() const { return delivered_; }
  [[nodiscard]] std::uint64_t forward_drops() const { return forward_drops_; }

 private:
  void on_receive(const Packet& p, NetDevice& from);
  [[nodiscard]] NetDevice* egress_for(std::uint32_t dst_node);

  sim::Simulation& sim_;
  std::uint32_t id_;
  std::string name_;
  std::vector<std::unique_ptr<NetDevice>> devices_;
  std::unordered_map<std::uint32_t, std::size_t> routes_;
  std::optional<std::size_t> default_route_;
  std::unordered_map<std::uint32_t, FlowHandler> flow_handlers_;
  std::uint64_t forwarded_{0};
  std::uint64_t delivered_{0};
  std::uint64_t forward_drops_{0};
};

}  // namespace rss::net
