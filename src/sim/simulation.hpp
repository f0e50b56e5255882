#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace rss::sim {

/// Facade bundling everything one simulation run needs: the event
/// scheduler, a master RNG, and run-control helpers. All simulation objects
/// hold a `Simulation&` — there are no globals, so independent runs can
/// execute concurrently on different threads (the sweep runner relies on
/// this).
class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1) : rng_{seed} {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] Scheduler& scheduler() { return scheduler_; }
  [[nodiscard]] const Scheduler& scheduler() const { return scheduler_; }
  [[nodiscard]] Time now() const { return scheduler_.now(); }

  /// Master RNG; components should fork() their own streams from it so that
  /// adding a component does not perturb the draws seen by others.
  [[nodiscard]] Rng& rng() { return rng_; }

  EventId at(Time t, Scheduler::Callback cb) { return scheduler_.schedule_at(t, std::move(cb)); }
  /// Schedule with an explicit birth time for the same-timestamp tie-break
  /// (see Scheduler::schedule_at_from). Used by cross-partition drains.
  EventId at_from(Time birth, Time t, Scheduler::Callback cb) {
    return scheduler_.schedule_at_from(birth, t, std::move(cb));
  }
  EventId in(Time delay, Scheduler::Callback cb) {
    return scheduler_.schedule_in(delay, std::move(cb));
  }
  /// Origin-ranked scheduling: same-(at, birth) ties resolve by the node
  /// label `origin` and its private rank counter instead of global insertion
  /// order (see Scheduler::schedule_at_ranked). Links use the sender
  /// device's origin so pop order is intrinsic to the topology, not to
  /// which scheduler an event was inserted into.
  EventId at_ranked(std::uint32_t origin, Time t, Scheduler::Callback cb) {
    return scheduler_.schedule_at_ranked(origin, t, std::move(cb));
  }
  EventId in_ranked(std::uint32_t origin, Time delay, Scheduler::Callback cb) {
    return scheduler_.schedule_in_ranked(origin, delay, std::move(cb));
  }
  /// Drain-side arm with an externally drawn (origin, rank) pair (see
  /// Scheduler::schedule_at_imported). Used by cross-partition deliveries.
  EventId at_imported(std::uint32_t origin, std::uint64_t rank, Time birth, Time t,
                      Scheduler::Callback cb) {
    return scheduler_.schedule_at_imported(origin, rank, birth, t, std::move(cb));
  }
  /// Batched event train: `cb` fires `count` times at `start`,
  /// `start + stride`, ... — one queue entry and one callback for the whole
  /// burst (see Scheduler::schedule_train). NetDevice uses this for
  /// back-to-back packet serializations at line rate.
  EventId train(Time start, Time stride, std::uint64_t count, Scheduler::Callback cb) {
    return scheduler_.schedule_train(start, stride, count, std::move(cb));
  }
  bool cancel(EventId id) { return scheduler_.cancel(id); }

  void run() { scheduler_.run(); }
  void run_until(Time t) { scheduler_.run_until(t); }
  void run_for(Time d) { scheduler_.run_until(scheduler_.now() + d); }
  void stop() { scheduler_.stop(); }

  /// Invoke `fn(now)` every `period` until it returns false or the
  /// simulation ends. First invocation at now() + period.
  void every(Time period, std::function<bool(Time)> fn);

 private:
  Scheduler scheduler_;
  Rng rng_;
};

}  // namespace rss::sim
