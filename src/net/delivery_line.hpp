#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "sim/event_entry.hpp"
#include "sim/scheduler.hpp"

namespace rss::net {

class NetDevice;

/// The packets on a wire, kept in the scheduler's pop order, with one armed
/// event for the earliest.
///
/// Each packet's key is drawn at transmit time (Scheduler::draw_key with
/// the sending device's origin): exactly the key a per-packet delivery
/// event would have carried. The line arms only its head. When the head
/// fires, the successor is armed before the packet goes up, because the
/// delivery can cascade into another transmit. So every key is in the heap
/// before any later key pops, and pop order — every golden with it — is
/// that of one event per packet, while the heap holds one entry per busy
/// line.
///
/// A plain FIFO would not do. Jitter deliberately permits reordering, and
/// both directions of a link share one line, so a packet can sort before
/// packets already on the wire. push() walks back from the tail by
/// event_key_before, which places same-instant ties between the directions
/// and jittered overtakes alike. Only a new head (jitter) cancels the armed
/// event and arms its own key.
///
/// Storage is a ring that grows by doubling and never shrinks, so a warm
/// line transmits and delivers without allocating. Armed events capture
/// `this`: a line does not move.
class DeliveryLine {
 public:
  /// Deliveries are armed on `scheduler`, the receiving side's.
  explicit DeliveryLine(sim::Scheduler& scheduler) : sched_{scheduler} {}
  DeliveryLine(const DeliveryLine&) = delete;
  DeliveryLine& operator=(const DeliveryLine&) = delete;

  /// Put `p` on the wire toward `to`, arriving under `key`.
  void push(const sim::EventKey& key, NetDevice& to, const Packet& p);

  /// Packets on the wire now.
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Packets handed to their receiving device so far.
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }

 private:
  struct Entry {
    sim::EventKey key;
    NetDevice* to{nullptr};
    Packet packet;
  };

  [[nodiscard]] Entry& nth(std::size_t i) { return ring_[(head_ + i) & (ring_.size() - 1)]; }
  void grow();
  void arm_head();
  void deliver_head();

  sim::Scheduler& sched_;
  std::vector<Entry> ring_;  ///< capacity: zero or a power of two
  std::size_t head_{0};
  std::size_t size_{0};
  sim::EventId armed_{};
  std::uint64_t delivered_{0};
};

}  // namespace rss::net
