#pragma once

#include <cstddef>
#include <cstdint>

#include "net/delivery_line.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/partition.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace rss::net {

/// A point-to-point link whose endpoints live in different partitions of a
/// PartitionedEngine. Instead of scheduling the delivery directly (the
/// peer's scheduler belongs to another thread mid-window), transmit_from
/// stages the packet, with the delivery key drawn on the source's
/// scheduler, into the engine's HandoffChannel for this direction; the
/// engine's drain phase then pushes it onto a DeliveryLine armed on the
/// destination partition's scheduler. Conservative lookahead guarantees
/// the delivery time is beyond the current window, so staging never
/// reorders anything.
///
/// Devices and experiments see the ordinary PointToPointLink surface.
/// Loss and jitter are unsupported across partitions (both draw from an
/// RNG at transmit time, which would make the draw order depend on thread
/// scheduling); set_loss_rate/set_jitter throw. Put lossy links inside a
/// partition.
class CrossPartitionLink final : public PointToPointLink {
 public:
  /// `sim_a`/`sim_b` are the partitions of the two endpoints passed to
  /// attach() (in the same order); `a_to_b`/`b_to_a` the engine channels
  /// for the two directions. `delay` must be >= 1ns — it is (part of) the
  /// lookahead bound, and ScenarioBuilder validates the cut accordingly.
  CrossPartitionLink(sim::Simulation& sim_a, sim::Simulation& sim_b, sim::Time delay,
                     sim::HandoffChannel& a_to_b, sim::HandoffChannel& b_to_a);

  void transmit_from(const NetDevice& sender, const Packet& p) override;
  [[noreturn]] void set_loss_rate(double p, sim::Rng rng) override;
  [[noreturn]] void set_jitter(sim::Time max_jitter, sim::Rng rng) override;

  /// Stats are summed over both directions; read them between runs (the
  /// counters live on two different partition threads during a window).
  [[nodiscard]] std::uint64_t packets_delivered() const override;
  [[nodiscard]] std::uint64_t packets_lost() const override { return 0; }

 private:
  /// One transmit direction. The source partition's worker reads only the
  /// two fixed pointers; `line` belongs to the destination partition's
  /// worker (engine drain phase + delivery events), so nothing here needs
  /// synchronization.
  struct Direction {
    Direction(sim::Simulation& src, sim::HandoffChannel& staging, sim::Simulation& dst,
              CrossPartitionLink& owner, bool to_b)
        : src_sim{&src}, channel{&staging}, link{&owner}, toward_b{to_b},
          line{dst.scheduler()} {}
    sim::Simulation* src_sim;
    sim::HandoffChannel* channel;
    CrossPartitionLink* link;
    bool toward_b;  ///< deliver to end_b_ (a->b direction)?
    DeliveryLine line;
  };

  /// sim::HandoffDeliverFn invoked by the engine's drain phase on the
  /// destination partition's thread.
  static void deliver_staged(void* direction, const std::byte* payload,
                             const sim::EventKey& key);

  Direction a_to_b_;
  Direction b_to_a_;
};

}  // namespace rss::net
