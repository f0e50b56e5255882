#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/data_rate.hpp"
#include "net/queue.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace rss::net {

class NetDevice;

/// Parameters of one fluid traffic aggregate. A fluid flow replaces a
/// packet-level cross-traffic sender with a rate ODE: the rate follows a
/// TCP-friendly AIMD trajectory (additive increase of one packet per RTT
/// per RTT, multiplicative decrease on a loss signal from a coupled queue)
/// and its arrivals are folded into bottleneck queues as a virtual backlog
/// once per integration stride.
struct FluidOptions {
  /// Rate at flow start. Defaults to a modest share so the AIMD ramp, not
  /// an instantaneous burst, fills the bottleneck — mirroring slow-start's
  /// effect at the coarse timescale fluid models.
  DataRate initial_rate{DataRate::mbps(10)};
  /// Hard rate cap. Zero means "no explicit cap"; the builder caps it at
  /// the minimum line rate along the flow's route.
  DataRate peak_rate{};
  /// Integration stride of the forward-Euler tick. Smaller strides track
  /// queue dynamics more faithfully at proportionally more events.
  sim::Time stride{sim::Time::milliseconds(1)};
  /// Packet size the aggregate emulates; sets the additive-increase slope
  /// and the virtual-backlog packetization.
  std::uint32_t packet_bytes{1500};
  /// Round-trip time of the emulated aggregate; sets the AIMD timescale
  /// and the loss-reaction epoch (at most one decrease per RTT). Zero
  /// means "derive": ScenarioBuilder fills in twice the route's one-way
  /// propagation delay. FluidSource itself requires a positive value.
  sim::Time rtt{sim::Time::zero()};
  /// Multiplicative decrease factor applied on a loss epoch (Reno: 0.5).
  double decrease{0.5};

  friend bool operator==(const FluidOptions&, const FluidOptions&) = default;
};

/// One fluid aggregate: a rate state variable advanced by the FluidDriver
/// in three phases per stride (offer, couple, adapt). Not scheduled on its
/// own — couplings read `rate_bps()` and report losses; the driver calls
/// `begin_interval`/`end_interval` around the coupling sweep so every
/// coupling in a tick sees the same pre-update rates regardless of
/// registration order.
class FluidSource {
 public:
  FluidSource(FluidOptions opt, std::string name);

  /// Open the tap: the rate jumps to `initial_rate` and integration begins
  /// at the next driver tick. Idempotent.
  void start();
  [[nodiscard]] bool started() const { return started_; }

  /// Current offered rate in bits per second (0 before start()).
  [[nodiscard]] double rate_bps() const { return started_ ? rate_bps_ : 0.0; }

  /// Phase 1 of a driver tick: accumulate this interval's offered bytes.
  void begin_interval(double dt);

  /// Called by a coupling (phase 2) when the aggregate's share of a queue
  /// overflowed. At most one multiplicative decrease is applied per RTT
  /// epoch, matching one-halving-per-window TCP behaviour. Returns whether
  /// the signal was accepted (false while closed or inside the epoch).
  bool note_loss(sim::Time now);

  /// Bytes of this aggregate a coupling had to shed (queue overflow).
  void add_dropped_bytes(double bytes) { dropped_bytes_ += bytes; }

  /// Phase 3 of a driver tick: apply the AIMD update for the interval.
  void end_interval(sim::Time now, double dt);

  [[nodiscard]] double offered_bytes() const { return offered_bytes_; }
  [[nodiscard]] double dropped_bytes() const { return dropped_bytes_; }
  [[nodiscard]] const FluidOptions& options() const { return opt_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  [[nodiscard]] double min_rate_bps() const;
  [[nodiscard]] double peak_rate_bps() const;

  FluidOptions opt_;
  std::string name_;
  double rate_bps_{0.0};
  double offered_bytes_{0.0};
  double dropped_bytes_{0.0};
  sim::Time next_decrease_at_{sim::Time::zero()};
  bool pending_decrease_{false};
  bool slow_start_{true};  ///< exponential ramp until the first loss
  bool started_{false};
};

/// Accounting endpoint of a fluid aggregate. Deliberately thin: fluid bytes
/// that were offered and not shed at a coupled queue are delivered, so the
/// sink derives goodput from the source's ledger the same way TcpSender's
/// goodput derives from cumulative acked bytes.
class FluidSink {
 public:
  explicit FluidSink(const FluidSource& source) : source_{&source} {}

  [[nodiscard]] double delivered_bytes() const {
    return source_->offered_bytes() - source_->dropped_bytes();
  }

  /// Cumulative delivered bytes expressed over [t0, t1], mirroring
  /// TcpSender::goodput_mbps semantics.
  [[nodiscard]] double goodput_mbps(sim::Time t0, sim::Time t1) const;

 private:
  const FluidSource* source_;
};

/// Couples the fluid aggregates crossing one NetDevice to its packet
/// queue. Each stride it plays a proportional-share FIFO interval game:
/// fluid demand (carried backlog + this interval's arrivals) and packet
/// demand (carried queue bytes + this interval's enqueues) split the line's
/// byte capacity pro rata; the unserved fluid remainder becomes the
/// queue's virtual backlog (and, beyond the queue's free room, loss signals
/// back to the sources), and the served share stretches the device's packet
/// serialization slots.
class FluidQueueCoupling {
 public:
  explicit FluidQueueCoupling(NetDevice& device);

  /// Build-time registration (allocates; the step path does not).
  void add_source(FluidSource* source);

  /// Advance the coupling by one stride. Reads pre-update source rates, so
  /// the driver must call this between begin_interval and end_interval.
  void step(sim::Time now, double dt);

  [[nodiscard]] double backlog_bytes() const { return backlog_bytes_; }
  [[nodiscard]] NetDevice& device() const { return *device_; }

 private:
  NetDevice* device_;
  std::vector<FluidSource*> sources_;
  double backlog_bytes_{0.0};
  /// Snapshot of (bytes_enqueued + bytes_dropped) at the previous step, so
  /// the interval's packet demand is a counter delta, not a queue poke.
  std::uint64_t prev_pkt_bytes_counter_{0};
  /// Real queued bytes at the end of the previous step (carried demand).
  std::uint64_t prev_queue_bytes_{0};
  std::uint32_t packet_bytes_{1500};
};

/// Per-partition coordinator: one self-rescheduling tick advances every
/// fluid source and coupling in its partition in three deterministic,
/// registration-order-independent phases. All fluid events live on the
/// partition's own scheduler and never cross a HandoffChannel, so the
/// conservative-lookahead window is unaffected by fluidization.
class FluidDriver {
 public:
  FluidDriver(sim::Simulation& simulation, sim::Time stride);

  /// Build-time registration (allocates; the tick path does not).
  void add_source(FluidSource* source);
  void add_coupling(FluidQueueCoupling* coupling);

  /// Arm the first tick. Call once after registration; the tick then
  /// re-arms itself every stride for the lifetime of the run.
  void start();

  [[nodiscard]] sim::Time stride() const { return stride_; }

 private:
  void tick();

  sim::Simulation& sim_;
  sim::Time stride_;
  std::vector<FluidSource*> sources_;
  std::vector<FluidQueueCoupling*> couplings_;
  bool armed_{false};
};

}  // namespace rss::net
