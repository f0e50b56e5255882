#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_entry.hpp"
#include "sim/inline_callback.hpp"
#include "sim/time.hpp"

namespace rss::sim {

/// Exists only for perfbench/layers.cpp's `Scheduler{ExecutionPolicy{}.resolve_backend(n)}`.
enum class QueueBackend { kBinaryHeap };

/// Opaque handle to a scheduled event, used for cancellation. Encodes an
/// arena slot index plus a generation counter, so a handle to a
/// fired/cancelled event can never accidentally cancel the unrelated event
/// that later reuses its slot. Default constructed handles are inert
/// (cancel() on them is a no-op).
class EventId {
 public:
  constexpr EventId() = default;
  [[nodiscard]] constexpr bool valid() const { return raw_ != 0; }
  [[nodiscard]] constexpr std::uint64_t raw() const { return raw_; }
  constexpr auto operator<=>(const EventId&) const = default;

 private:
  friend class Scheduler;
  constexpr EventId(std::uint32_t slot, std::uint32_t gen)
      : raw_{(static_cast<std::uint64_t>(slot) << 32) | gen} {}
  [[nodiscard]] constexpr std::uint32_t slot() const {
    return static_cast<std::uint32_t>(raw_ >> 32);
  }
  [[nodiscard]] constexpr std::uint32_t gen() const {
    return static_cast<std::uint32_t>(raw_ & 0xFFFF'FFFFu);
  }
  std::uint64_t raw_{0};
};

/// Discrete-event scheduler: (time, insertion-sequence) ordered callbacks
/// on a binary heap.
///
/// Same-timestamp events fire in insertion order (the sequence tiebreak),
/// which keeps simulations deterministic regardless of queue internals —
/// a correctness requirement, not a nicety: TCP ACK processing and link
/// drain events frequently coincide.
///
/// The event core is allocation-free on the hot path. Callbacks are
/// InlineCallback (small-buffer, no heap fallback) and live in a slot
/// arena recycled through a free list; the heap stores only the 40-byte
/// POD EventEntry. Cancellation resolves an EventId to its slot in O(1)
/// with no hashing. Cancellation is lazy (the pop loop discards entries
/// whose generation no longer matches), but dead entries are always skimmed
/// off the top at cancel/pop boundaries, so next_event_time() and empty()
/// are genuinely const. A cancelled entry still occupies the heap until it
/// surfaces, so the per-ACK sources do not cancel: a TCP timer moves a
/// deadline inside sim::Timer and a link keeps its in-flight packets in a
/// net::DeliveryLine, each with one armed event, and cancel stays off the
/// hot path.
class Scheduler {
 public:
  using Callback = InlineCallback;

  /// The argument is ignored; it exists only for perfbench/layers.cpp's call.
  explicit Scheduler(QueueBackend /*ignored*/ = QueueBackend::kBinaryHeap) {}
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulation time. Monotonically non-decreasing.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `cb` at absolute time `at` (must be >= now()).
  EventId schedule_at(Time at, Callback cb) {
    return schedule_keyed(draw_key(0, at), std::move(cb));
  }

  /// Schedule `cb` after relative delay `delay` (must be >= 0).
  EventId schedule_in(Time delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Draw the key of an event at `at` on the `origin` tie-break stream —
  /// birth = now() and the next rank of origin's private counter — without
  /// arming anything. The holder arms it later with schedule_keyed, on this
  /// or another scheduler, and the event pops exactly where it would have
  /// had it been armed now (see EventKey). Origins label *nodes* in a
  /// partitioned topology, so the rank is a pure function of the node's
  /// local transmit history — the same value whether the node's events land
  /// in one shared scheduler or its own partition's. Origin 0 is the
  /// default stream used by schedule_at/schedule_in. The rank is consumed
  /// whether or not the key is ever armed.
  EventKey draw_key(std::uint32_t origin, Time at) {
    if (origin >= next_rank_.size()) next_rank_.resize(origin + 1, 1);
    return EventKey{at, now_, next_rank_[origin]++, origin};
  }

  /// Arm `cb` under a key drawn earlier by draw_key (on this or another
  /// scheduler); touches no rank counter. The key's birth may lie in the
  /// past, its time may not.
  EventId schedule_keyed(const EventKey& key, Callback cb);

  /// Pre-size the per-origin rank counters so draw_key for origins
  /// < `count` never allocates on the hot path. The builder calls this with
  /// node_count + 1 on every partition's scheduler.
  void reserve_origins(std::size_t count) {
    if (count > next_rank_.size()) next_rank_.resize(count, 1);
  }

  /// Cancel a pending event. Safe to call with an already-fired, already-
  /// cancelled, or default-constructed id; returns true iff something was
  /// actually cancelled.
  bool cancel(EventId id);

  /// Run until the queue is empty or `stop()` is called.
  void run();

  /// Run events with timestamp <= `until`; afterwards now() == min(until,
  /// stop time). Events scheduled at exactly `until` do fire.
  void run_until(Time until);

  /// Fire at most one event; returns false if none was pending (or stop was
  /// requested). Useful for single-stepping in tests.
  bool step();

  /// Request run()/run_until() to return after the current event completes.
  void stop() { stop_requested_ = true; }

  [[nodiscard]] bool empty() const { return live_ == 0; }
  /// Live (pending, uncancelled) events.
  [[nodiscard]] std::size_t pending() const { return live_; }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Size of the slot arena (high-water mark of simultaneously-pending
  /// events). Slots are recycled through a free list, so schedule/cancel
  /// storms — the per-ACK RTO pattern — must not grow this; tests assert it.
  [[nodiscard]] std::size_t arena_slots() const { return slots_.size(); }

  /// Timestamp of the next pending event, or Time::infinity() if none.
  [[nodiscard]] Time next_event_time() const;

 private:
  /// Arena slot: owns one pending event's callback.
  struct Slot {
    Callback cb;
    std::uint32_t gen{1};
    bool armed{false};
  };
  struct Later {
    bool operator()(const EventEntry& a, const EventEntry& b) const {
      // See event_key_before for the tie-break rationale (hashed tagged
      // streams, legacy sequence for the untagged stream).
      return event_key_before(b.key, a.key);
    }
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  /// Pop dead (cancelled) entries off the top of the heap. Called at cancel
  /// and pop boundaries so the invariant "a non-empty heap has a live top"
  /// holds whenever control is outside the scheduler — which is what lets
  /// next_event_time()/empty() be plain const reads.
  void skim_dead_heap_top();

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::priority_queue<EventEntry, std::vector<EventEntry>, Later> heap_;
  std::size_t live_{0};
  Time now_{Time::zero()};
  /// Per-origin insertion-rank counters; element 0 (always present) is the
  /// default stream and behaves exactly like the old global sequence.
  std::vector<std::uint64_t> next_rank_ = std::vector<std::uint64_t>(1, 1);
  std::uint64_t executed_{0};
  bool stop_requested_{false};
};

}  // namespace rss::sim
