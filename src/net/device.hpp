#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "net/data_rate.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "sim/simulation.hpp"

namespace rss::net {

class PointToPointLink;

/// Statistics a NetDevice accumulates. `send_stalls` counts local-send
/// rejections by a full IFQ — the paper's central observable.
struct DeviceStats {
  std::uint64_t tx_packets{0};
  std::uint64_t tx_bytes{0};
  std::uint64_t rx_packets{0};
  std::uint64_t rx_bytes{0};
  std::uint64_t send_stalls{0};
};

/// Network interface: a finite interface queue (IFQ, Linux `txqueuelen`)
/// drained at line rate onto an attached point-to-point link.
///
/// This device is the *plant* of the paper. The host stack pushes packets
/// in bursts (2-per-ACK during slow-start); the wire drains them one
/// serialization time apart. When a push finds the IFQ full, the device
/// rejects it — the Linux `NET_XMIT_CN` "send-stall" — and notifies the
/// stall observer so TCP can react (and Web100 can count it).
class NetDevice {
 public:
  using ReceiveCallback = std::function<void(const Packet&, NetDevice&)>;
  using StallCallback = std::function<void(const Packet&)>;

  enum class TxResult {
    kQueued,    ///< admitted to the IFQ (possibly already on the wire)
    kRejected,  ///< IFQ full — send-stall
  };

  NetDevice(sim::Simulation& simulation, DataRate rate,
            std::unique_ptr<PacketQueue> ifq, std::string name);

  NetDevice(const NetDevice&) = delete;
  NetDevice& operator=(const NetDevice&) = delete;

  /// Push a packet from the upper layer (host stack or forwarding plane).
  TxResult send(const Packet& p);

  /// Wire attachment; the link delivers received packets via deliver_up().
  void attach_link(PointToPointLink* link) { link_ = link; }
  [[nodiscard]] PointToPointLink* link() const { return link_; }

  /// Called by the link when a packet arrives from the peer.
  void deliver_up(const Packet& p);

  void set_receive_callback(ReceiveCallback cb) { rx_cb_ = std::move(cb); }
  void set_stall_callback(StallCallback cb) { stall_cb_ = std::move(cb); }
  /// Current callbacks, exposed so observers (PacketTracer) can chain onto
  /// them without destroying the existing wiring.
  [[nodiscard]] const ReceiveCallback& receive_callback() const { return rx_cb_; }
  [[nodiscard]] const StallCallback& stall_callback() const { return stall_cb_; }
  [[nodiscard]] sim::Simulation& simulation() const { return sim_; }

  [[nodiscard]] const PacketQueue& ifq() const { return *ifq_; }
  /// Mutable IFQ access for the fluid coupling, which pushes the aggregate's
  /// virtual backlog into the queue between events.
  [[nodiscard]] PacketQueue& mutable_ifq() { return *ifq_; }
  [[nodiscard]] DataRate rate() const { return rate_; }
  [[nodiscard]] const DeviceStats& stats() const { return stats_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool transmitting() const { return busy_; }

  /// Occupancy including the packet currently being serialized — what
  /// Linux's qdisc-length probe would report, and the PID process variable.
  [[nodiscard]] std::size_t occupancy_packets() const {
    return ifq_->size_packets() + (busy_ ? 1u : 0u);
  }
  [[nodiscard]] std::size_t ifq_capacity() const { return ifq_->capacity_packets(); }

  /// Fraction of line rate consumed by a fluid aggregate sharing this
  /// device (0 = all-packet). While nonzero, each packet's serialization
  /// slot is stretched to rate·(1 − share), read when that packet starts,
  /// so the share can change between any two completions.
  void set_fluid_share(double share);
  [[nodiscard]] double fluid_share() const { return fluid_share_; }

  /// Stable tie-break label for events this device emits onto a link
  /// (Scheduler origin streams; see EventKey). The builder tags every
  /// device with its owning node's global spec index + 1, so same-timestamp
  /// deliveries order by (node, per-node rank) — a pure function of the
  /// topology — instead of scheduler insertion order, which is what keeps
  /// partitioned runs pop-order-identical to sequential ones. 0 (the
  /// default) is the shared legacy stream.
  void set_event_origin(std::uint32_t origin) { event_origin_ = origin; }
  [[nodiscard]] std::uint32_t event_origin() const { return event_origin_; }

 private:
  void try_start_tx();
  void complete_tx();

  sim::Simulation& sim_;
  DataRate rate_;
  std::unique_ptr<PacketQueue> ifq_;
  std::string name_;
  PointToPointLink* link_{nullptr};
  ReceiveCallback rx_cb_;
  StallCallback stall_cb_;
  DeviceStats stats_;
  /// The packet currently on the wire. Held here (not in the scheduled
  /// closure) so the serialization callback captures only `this` and stays
  /// within the scheduler's inline-callback budget.
  Packet serializing_{};
  double fluid_share_{0.0};
  std::uint32_t event_origin_{0};
  bool busy_{false};
};

}  // namespace rss::net
