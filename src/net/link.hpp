#pragma once

#include <cstdint>

#include "net/delivery_line.hpp"
#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace rss::net {

class NetDevice;

/// Full-duplex point-to-point wire: pure propagation delay between two
/// NetDevices (serialization happens in the devices, which own the rate).
/// An optional Bernoulli loss model supports robustness experiments —
/// every loss is counted so tests can assert on it. Packets on the wire
/// wait in one DeliveryLine for both directions: one pending event per busy
/// link, not one per packet.
///
/// The transmit/config entry points are virtual so a link can span two
/// partitions (CrossPartitionLink stages deliveries through the partition
/// engine instead of scheduling directly); devices and experiments keep
/// talking to the concrete PointToPointLink surface either way.
class PointToPointLink {
 public:
  PointToPointLink(sim::Simulation& simulation, sim::Time propagation_delay);
  virtual ~PointToPointLink() = default;

  PointToPointLink(const PointToPointLink&) = delete;
  PointToPointLink& operator=(const PointToPointLink&) = delete;

  /// Wire both endpoints. Must be called exactly once before traffic flows.
  void attach(NetDevice& a, NetDevice& b);

  /// Called by an endpoint device when a packet finishes serialization.
  virtual void transmit_from(const NetDevice& sender, const Packet& p);

  /// Enable random loss with probability `p` per packet (0 disables).
  virtual void set_loss_rate(double p, sim::Rng rng);

  /// Add uniform random extra propagation delay in [0, max_jitter] per
  /// packet. Note this deliberately permits reordering (a packet with less
  /// jitter can overtake an earlier one) — that is the point: it exercises
  /// the receiver's out-of-order reassembly and the sender's dupack logic
  /// with realistic WAN pathologies.
  virtual void set_jitter(sim::Time max_jitter, sim::Rng rng);

  [[nodiscard]] sim::Time delay() const { return delay_; }
  [[nodiscard]] virtual std::uint64_t packets_delivered() const { return delivered_; }
  [[nodiscard]] virtual std::uint64_t packets_lost() const { return lost_; }

 protected:
  sim::Simulation& sim_;
  sim::Time delay_;
  NetDevice* end_a_{nullptr};
  NetDevice* end_b_{nullptr};

 private:
  double loss_rate_{0.0};
  sim::Rng loss_rng_{};
  sim::Time max_jitter_{sim::Time::zero()};
  sim::Rng jitter_rng_{};
  std::uint64_t delivered_{0};
  std::uint64_t lost_{0};
  DeliveryLine line_;
};

}  // namespace rss::net
