#include "net/link.hpp"

#include <stdexcept>

#include "net/device.hpp"

namespace rss::net {

PointToPointLink::PointToPointLink(sim::Simulation& simulation, sim::Time propagation_delay)
    : sim_{simulation}, delay_{propagation_delay}, line_{simulation.scheduler()} {
  if (propagation_delay.is_negative())
    throw std::invalid_argument("PointToPointLink: negative delay");
}

void PointToPointLink::attach(NetDevice& a, NetDevice& b) {
  if (end_a_ || end_b_) throw std::logic_error("PointToPointLink: already attached");
  end_a_ = &a;
  end_b_ = &b;
  a.attach_link(this);
  b.attach_link(this);
}

void PointToPointLink::set_loss_rate(double p, sim::Rng rng) {
  if (p < 0.0 || p >= 1.0) throw std::invalid_argument("PointToPointLink: loss rate in [0,1)");
  loss_rate_ = p;
  loss_rng_ = rng;
}

void PointToPointLink::set_jitter(sim::Time max_jitter, sim::Rng rng) {
  if (max_jitter.is_negative())
    throw std::invalid_argument("PointToPointLink: negative jitter");
  max_jitter_ = max_jitter;
  jitter_rng_ = rng;
}

void PointToPointLink::transmit_from(const NetDevice& sender, const Packet& p) {
  if (!end_a_ || !end_b_) throw std::logic_error("PointToPointLink: not attached");
  NetDevice* peer = (&sender == end_a_) ? end_b_ : end_a_;
  if (&sender != end_a_ && &sender != end_b_)
    throw std::logic_error("PointToPointLink: transmit from non-endpoint");

  if (loss_rate_ > 0.0 && loss_rng_.next_bool(loss_rate_)) {
    ++lost_;
    return;
  }
  ++delivered_;
  sim::Time delay = delay_;
  if (max_jitter_ > sim::Time::zero()) {
    delay += max_jitter_ * jitter_rng_.next_double();
  }
  // Keyed by the sending device's origin so same-timestamp deliveries order
  // intrinsically (node, per-node rank) — the key a CrossPartitionLink
  // carries across partitions; both link kinds must draw from the same
  // per-origin counters for sequential/partitioned pop-order parity.
  line_.push(sim_.scheduler().draw_key(sender.event_origin(), sim_.now() + delay), *peer, p);
}

}  // namespace rss::net
