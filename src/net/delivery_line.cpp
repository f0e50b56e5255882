#include "net/delivery_line.hpp"

#include <utility>

#include "net/device.hpp"

namespace rss::net {

void DeliveryLine::push(const sim::EventKey& key, NetDevice& to, const Packet& p) {
  if (size_ == ring_.size()) grow();
  std::size_t i = size_;
  while (i > 0 && sim::event_key_before(key, nth(i - 1).key)) {
    nth(i) = nth(i - 1);
    --i;
  }
  nth(i) = Entry{key, &to, p};
  ++size_;
  if (i != 0) return;
  if (armed_.valid()) sched_.cancel(armed_);
  arm_head();
}

void DeliveryLine::grow() {
  std::vector<Entry> bigger(ring_.empty() ? 1 : ring_.size() * 2);
  for (std::size_t i = 0; i < size_; ++i) bigger[i] = nth(i);
  ring_ = std::move(bigger);
  head_ = 0;
}

void DeliveryLine::arm_head() {
  const auto deliver = [this] { deliver_head(); };
  static_assert(sizeof(deliver) <= sim::InlineCallback::kCapacity,
                "delivery callback must stay inline on the scheduler hot path");
  armed_ = sched_.schedule_keyed(nth(0).key, deliver);
}

void DeliveryLine::deliver_head() {
  // Copy out and arm the successor first: deliver_up can cascade into
  // another push onto this line, which may reuse the slot or grow the ring.
  const Entry arrived = nth(0);
  head_ = (head_ + 1) & (ring_.size() - 1);
  --size_;
  armed_ = sim::EventId{};
  if (size_ > 0) arm_head();
  ++delivered_;
  arrived.to->deliver_up(arrived.packet);
}

}  // namespace rss::net
