// Per-layer rows timed from outside each layer's public interface. Sizes
// follow what the benchmark's workloads reach: pending populations from 10^2
// to 10^4 (sim.pending_max reaches about 380 on paper_wan and 3,500 on
// scale_mesh), IFQs of 100 packets, a 60 ms RTT and a 100 ms Web100 poll
// period.

#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/codel.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/execution.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulation.hpp"
#include "tcp/congestion_control.hpp"
#include "web100/mib.hpp"
#include "web100/polling_agent.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using rss::sim::Time;

constexpr int kReps = 5;

template <typename F>
[[nodiscard]] double elapsed_ns(F&& f) {
  const auto t0 = Clock::now();
  f();
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Median over kReps calls of `timed(ops)`, which performs `ops` operations
/// and returns the ns its timed part took; reported in ns per operation.
template <typename Timed>
[[nodiscard]] double median_ns_per_op(std::size_t ops, Timed&& timed) {
  std::vector<double> samples;
  samples.reserve(kReps);
  for (int r = 0; r < kReps; ++r) samples.push_back(timed(ops) / static_cast<double>(ops));
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Self-rescheduling event for the classic hold model: each firing pushes
/// one successor a pseudo-random increment ahead, so the pending population
/// stays constant and every step() is exactly one pop plus one push.
class HoldModel {
 public:
  explicit HoldModel(std::size_t population)
      : scheduler_{rss::scenario::ExecutionPolicy{}.resolve_backend(population)} {
    // Uniform gaps in [1, 2 * population] us keep the mean spacing between
    // pending events near 1 us at every population size.
    rss::sim::Rng rng{42};
    gaps_.resize(kGaps);
    for (auto& gap : gaps_)
      gap = Time::nanoseconds(1 + static_cast<std::int64_t>(
                                      rng.next_u64() % (2'000 * population)));
    for (std::size_t i = 0; i < population; ++i)
      scheduler_.schedule_at(gaps_[i % kGaps], [this] { fire(); });
  }
  HoldModel(const HoldModel&) = delete;
  HoldModel& operator=(const HoldModel&) = delete;

  void steps(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) scheduler_.step();
  }

 private:
  static constexpr std::size_t kGaps = 4096;

  void fire() { scheduler_.schedule_in(gaps_[next_++ % kGaps], [this] { fire(); }); }

  rss::sim::Scheduler scheduler_;
  std::vector<Time> gaps_;
  std::size_t next_{0};
};

[[nodiscard]] double hold_ns(std::size_t population) {
  HoldModel model{population};
  model.steps(population * 4);  // warm the arena and the queue layout
  return median_ns_per_op(200'000, [&](std::size_t n) {
    return elapsed_ns([&] { model.steps(n); });
  });
}

/// Cancel plus schedule of one timer among `population` parked events —
/// the per-ACK RTO re-arm. Between timed batches the clock advances past
/// the timer (untimed), so lazily cancelled heap entries are skimmed as they
/// are when a real run moves forward.
[[nodiscard]] double rearm_ns(std::size_t population) {
  rss::sim::Scheduler s{rss::scenario::ExecutionPolicy{}.resolve_backend(population)};
  const Time parked = Time::seconds(1'000'000);
  for (std::size_t i = 0; i < population; ++i)
    s.schedule_at(parked + Time::nanoseconds(static_cast<std::int64_t>(i)), [] {});
  const Time rto = Time::milliseconds(200);
  constexpr std::size_t kBatch = 1'000;
  rss::sim::EventId timer;
  return median_ns_per_op(200'000, [&](std::size_t n) {
    double ns = 0;
    for (std::size_t done = 0; done < n; done += kBatch) {
      ns += elapsed_ns([&] {
        for (std::size_t j = 0; j < kBatch; ++j) {
          s.cancel(timer);
          timer = s.schedule_at(s.now() + rto, [] {});
        }
      });
      s.run_until(s.now() + rto);
    }
    return ns;
  });
}

/// One enqueue+dequeue pair at half occupancy. Packets are ECN-capable, so
/// RED's early decisions mark instead of dropping and the occupancy holds.
[[nodiscard]] double queue_pair_ns(rss::net::PacketQueue& q) {
  rss::net::Packet p{};
  p.payload_bytes = 1460;
  p.ect = true;
  while (q.size_packets() < q.capacity_packets() / 2) (void)q.enqueue(p);
  const auto pairs = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (q.enqueue(p)) (void)q.dequeue();
    }
  };
  pairs(10'000);  // let RED's EWMA settle at the held occupancy
  return median_ns_per_op(400'000, [&](std::size_t n) { return elapsed_ns([&] { pairs(n); }); });
}

/// Minimal CcHost: the window lives here, the clock advances 20 us per ACK
/// and the IFQ occupancy sweeps 0..99 so RSS's controller sees a moving
/// error.
class FakeHost final : public rss::tcp::CcHost {
 public:
  [[nodiscard]] double cwnd_bytes() const override { return cwnd_; }
  void set_cwnd_bytes(double cwnd) override { cwnd_ = cwnd; }
  [[nodiscard]] double ssthresh_bytes() const override { return ssthresh_; }
  void set_ssthresh_bytes(double ssthresh) override { ssthresh_ = ssthresh; }
  [[nodiscard]] std::uint32_t mss() const override { return kMss; }
  [[nodiscard]] std::uint64_t flight_size_bytes() const override {
    return static_cast<std::uint64_t>(cwnd_);
  }
  [[nodiscard]] Time now() const override { return now_; }
  [[nodiscard]] std::size_t ifq_occupancy_packets() const override { return occupancy_; }
  [[nodiscard]] std::size_t ifq_capacity_packets() const override { return 100; }
  [[nodiscard]] Time srtt() const override { return Time::milliseconds(60); }

  static constexpr std::uint32_t kMss = 1460;

  void tick(std::size_t i) {
    now_ = now_ + Time::microseconds(20);
    occupancy_ = i % 100;
  }
  void reset(double cwnd, double ssthresh) {
    cwnd_ = cwnd;
    ssthresh_ = ssthresh;
  }

 private:
  double cwnd_{0};
  double ssthresh_{0};
  Time now_{Time::zero()};
  std::size_t occupancy_{0};
};

/// CongestionControl::on_ack through the registered factory. Every 1024
/// ACKs the window is reset so the variant stays in one regime: congestion
/// avoidance for Reno and CUBIC (ssthresh below cwnd), where a bulk flow
/// spends most ACKs, and slow start for RSS, where its PID runs.
[[nodiscard]] double on_ack_ns(const std::string& variant, bool slow_start) {
  const auto cc = rss::scenario::factory_by_name(variant)();
  FakeHost host;
  cc->attach(host);
  const double mss = FakeHost::kMss;
  const auto reset = [&] {
    host.reset(slow_start ? 10 * mss : 64 * mss, slow_start ? 1e12 : 32 * mss);
  };
  reset();
  std::size_t i = 0;
  return median_ns_per_op(400'000, [&](std::size_t n) {
    double ns = 0;
    for (std::size_t done = 0; done < n; done += 1024) {
      ns += elapsed_ns([&] {
        for (std::size_t j = 0; j < 1024; ++j) {
          host.tick(i++);
          cc->on_ack(FakeHost::kMss);
        }
      });
      reset();
    }
    return ns;
  });
}

/// One Web100 poll: a PollingAgent on a bare Simulation snapshotting a
/// fixed MIB every 100 ms of simulated time.
[[nodiscard]] double poll_ns() {
  rss::web100::Mib mib{};
  mib.PktsOut = 123'456;
  mib.ThruBytesAcked = 98'765'432;
  mib.update_cwnd(64.0 * 1460);
  return median_ns_per_op(20'000, [&](std::size_t n) {
    rss::sim::Simulation sim{1};
    rss::web100::PollingAgent agent{sim, [&mib]() -> const rss::web100::Mib& { return mib; },
                                    Time::milliseconds(100)};
    agent.start();
    const double ns = elapsed_ns(
        [&] { sim.run_until(Time::milliseconds(100 * static_cast<std::int64_t>(n) - 1)); });
    return ns * static_cast<double>(n) / static_cast<double>(agent.polls_taken());
  });
}

}  // namespace

std::vector<LayerRow> micro_layer_rows() {
  std::vector<LayerRow> rows;
  rows.emplace_back("sim.hold_ns.n100", hold_ns(100));
  rows.emplace_back("sim.hold_ns.n1000", hold_ns(1'000));
  rows.emplace_back("sim.hold_ns.n10000", hold_ns(10'000));
  rows.emplace_back("sim.rearm_ns", rearm_ns(100));

  rss::net::DropTailQueue droptail{100};
  rows.emplace_back("net.queue_ns.droptail", queue_pair_ns(droptail));
  rss::net::RedQueue red{{.capacity_packets = 100,
                          .min_threshold = 20.0,
                          .max_threshold = 60.0,
                          .max_drop_probability = 0.1,
                          .queue_weight = 0.002},
                         rss::sim::Rng{7}};
  rows.emplace_back("net.queue_ns.red", queue_pair_ns(red));
  const rss::sim::Simulation clock{1};
  rss::net::CodelQueue codel{{.capacity_packets = 100}, clock};
  rows.emplace_back("net.queue_ns.codel", queue_pair_ns(codel));

  rows.emplace_back("tcp.cc_on_ack_ns.reno", on_ack_ns("reno", false));
  rows.emplace_back("tcp.cc_on_ack_ns.cubic", on_ack_ns("cubic", false));
  rows.emplace_back("core.rss_on_ack_ns", on_ack_ns("rss", true));
  rows.emplace_back("web100.poll_ns", poll_ns());
  return rows;
}

}  // namespace perfbench
