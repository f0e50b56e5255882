#include "net/cross_link.hpp"

#include <cstring>
#include <stdexcept>

#include "net/device.hpp"

namespace rss::net {

CrossPartitionLink::CrossPartitionLink(sim::Simulation& sim_a, sim::Simulation& sim_b,
                                       sim::Time delay, sim::HandoffChannel& a_to_b,
                                       sim::HandoffChannel& b_to_a)
    : PointToPointLink(sim_a, delay),
      a_to_b_{sim_a, a_to_b, sim_b, *this, true},
      b_to_a_{sim_b, b_to_a, sim_a, *this, false} {
  if (delay < sim::Time::nanoseconds(1))
    throw std::invalid_argument(
        "CrossPartitionLink: a cross-partition link needs nonzero latency (it bounds the "
        "conservative lookahead window)");
}

void CrossPartitionLink::transmit_from(const NetDevice& sender, const Packet& p) {
  if (!end_a_ || !end_b_) throw std::logic_error("CrossPartitionLink: not attached");
  if (&sender != end_a_ && &sender != end_b_)
    throw std::logic_error("CrossPartitionLink: transmit from non-endpoint");
  Direction& dir = (&sender == end_a_) ? a_to_b_ : b_to_a_;
  // The key is drawn on the *source* scheduler for the sending node at
  // transmit time — birth = the source's clock, and exactly the rank a
  // single shared scheduler would have assigned this delivery — and travels
  // with the payload so the drain can arm it unchanged on the destination.
  const sim::EventKey key =
      dir.src_sim->scheduler().draw_key(sender.event_origin(), dir.src_sim->now() + delay());
  dir.channel->stage(key, &dir, &CrossPartitionLink::deliver_staged, p);
}

void CrossPartitionLink::set_loss_rate(double, sim::Rng) {
  throw std::logic_error(
      "CrossPartitionLink: loss is unsupported across partitions (the per-packet RNG draw "
      "order would depend on thread timing); keep lossy links inside one partition");
}

void CrossPartitionLink::set_jitter(sim::Time, sim::Rng) {
  throw std::logic_error(
      "CrossPartitionLink: jitter is unsupported across partitions (it would shrink the "
      "lookahead bound and randomize the draw order); keep jittery links inside one "
      "partition");
}

std::uint64_t CrossPartitionLink::packets_delivered() const {
  return a_to_b_.line.delivered() + b_to_a_.line.delivered();
}

void CrossPartitionLink::deliver_staged(void* direction, const std::byte* payload,
                                        const sim::EventKey& key) {
  auto* dir = static_cast<Direction*>(direction);
  Packet p;
  std::memcpy(&p, payload, sizeof(Packet));
  NetDevice& to = dir->toward_b ? *dir->link->end_b_ : *dir->link->end_a_;
  // The staged key (the source's transmit clock as birth, the sender's
  // (origin, rank)) makes a same-timestamp race between this delivery and
  // any other event resolve exactly as in a single-scheduler run,
  // regardless of drain order.
  dir->line.push(key, to, p);
}

}  // namespace rss::net
