#include "net/device.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "net/link.hpp"

namespace rss::net {

NetDevice::NetDevice(sim::Simulation& simulation, DataRate rate,
                     std::unique_ptr<PacketQueue> ifq, std::string name)
    : sim_{simulation}, rate_{rate}, ifq_{std::move(ifq)}, name_{std::move(name)} {
  if (!ifq_) throw std::invalid_argument("NetDevice: null IFQ");
  if (rate_.bits_per_second() == 0) throw std::invalid_argument("NetDevice: zero rate");
}

NetDevice::TxResult NetDevice::send(const Packet& p) {
  if (!ifq_->enqueue(p)) {
    ++stats_.send_stalls;
    if (stall_cb_) stall_cb_(p);
    return TxResult::kRejected;
  }
  try_start_tx();
  return TxResult::kQueued;
}

void NetDevice::try_start_tx() {
  if (busy_ || ifq_->empty()) return;
  // One completion event per packet, chained from complete_tx(). Under a
  // fluid share the slot is stretched to the residual rate (1 − share),
  // read at each packet's start because the coupling may change the share
  // between any two completions.
  busy_ = true;
  serializing_ = *ifq_->dequeue();
  sim::Time slot = rate_.transmission_time(serializing_.size_bytes());
  if (fluid_share_ > 0.0) {
    const double stretched =
        std::ceil(static_cast<double>(slot.nanoseconds_count()) / (1.0 - fluid_share_));
    slot = sim::Time::nanoseconds(static_cast<std::int64_t>(stretched));
  }
  const auto fire = [this] { complete_tx(); };
  static_assert(sizeof(fire) <= sim::InlineCallback::kCapacity,
                "serialization callback must stay inline on the scheduler hot path");
  sim_.in(slot, fire);
}

void NetDevice::complete_tx() {
  const Packet p = serializing_;
  ++stats_.tx_packets;
  stats_.tx_bytes += p.size_bytes();
  busy_ = false;
  if (link_) link_->transmit_from(*this, p);
  try_start_tx();
}

void NetDevice::set_fluid_share(double share) {
  // Clamp below 1 so the stretched serialization slot stays finite even
  // when the fluid aggregate momentarily claims the whole line.
  fluid_share_ = std::clamp(share, 0.0, 0.98);
}

void NetDevice::deliver_up(const Packet& p) {
  ++stats_.rx_packets;
  stats_.rx_bytes += p.size_bytes();
  if (rx_cb_) rx_cb_(p, *this);
}

}  // namespace rss::net
