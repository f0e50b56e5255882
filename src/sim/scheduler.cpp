#include "sim/scheduler.hpp"

#include <stdexcept>
#include <utility>

namespace rss::sim {

EventId Scheduler::schedule_train(Time start, Time stride, std::uint64_t count,
                                  Callback cb) {
  if (count == 0) return EventId{};
  if (stride.is_negative())
    throw std::invalid_argument("Scheduler: negative train stride");
  if (count > 1) {
    if (start.is_infinite() || stride.is_infinite())
      throw std::invalid_argument("Scheduler: multi-event train at/with infinity");
    // The continuation in step() computes at + stride per firing; reject
    // trains whose last firing would overflow the int64 nanosecond clock
    // (which would silently run the scheduler's clock backwards).
    const auto start_ns = static_cast<std::uint64_t>(start.nanoseconds_count());
    const auto stride_ns = static_cast<std::uint64_t>(stride.nanoseconds_count());
    const auto headroom =
        static_cast<std::uint64_t>(Time::infinity().nanoseconds_count()) - start_ns;
    if (stride_ns != 0 && count - 1 > headroom / stride_ns)
      throw std::invalid_argument("Scheduler: train extends beyond representable time");
  }
  return arm(start, stride, count, std::move(cb), now_, 0);
}

EventId Scheduler::arm(Time at, Time stride, std::uint64_t count, Callback cb, Time birth,
                       std::uint32_t origin) {
  return arm_with_rank(at, stride, count, std::move(cb), birth, origin, draw_rank(origin));
}

EventId Scheduler::arm_with_rank(Time at, Time stride, std::uint64_t count, Callback cb,
                                 Time birth, std::uint32_t origin, std::uint64_t rank) {
  if (at < now_) throw std::invalid_argument("Scheduler: event scheduled in the past");
  if (!cb) throw std::invalid_argument("Scheduler: null callback");
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.cb = std::move(cb);
  slot.stride = stride;
  slot.origin = origin;
  slot.remaining = count;
  slot.armed = true;
  ++live_;
  heap_.push(EventEntry{at, birth, rank, index, slot.gen, origin});
  return EventId{index, slot.gen};
}

std::uint32_t Scheduler::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t index = free_slots_.back();
    free_slots_.pop_back();
    return index;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Scheduler::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.cb = Callback{};
  slot.armed = false;
  slot.remaining = 0;
  // Bump the generation so stale EventIds and lazily-cancelled heap entries
  // referencing this slot can never match again. Generation 0 is reserved:
  // EventId{slot 0, gen 0} would collide with the inert default id.
  if (++slot.gen == 0) slot.gen = 1;
  free_slots_.push_back(index);
  --live_;
}

bool Scheduler::cancel(EventId id) {
  if (!id.valid()) return false;
  const std::uint32_t index = id.slot();
  if (index >= slots_.size()) return false;
  Slot& slot = slots_[index];
  if (!slot.armed || slot.gen != id.gen()) return false;
  release_slot(index);
  skim_dead_heap_top();
  return true;
}

void Scheduler::skim_dead_heap_top() {
  while (!heap_.empty()) {
    const EventEntry& top = heap_.top();
    const Slot& slot = slots_[top.slot];
    if (slot.armed && slot.gen == top.gen) break;
    heap_.pop();
  }
}

Time Scheduler::next_event_time() const {
  // Heap-top invariant: skims at cancel/pop boundaries guarantee a live top.
  return heap_.empty() ? Time::infinity() : heap_.top().at;
}

bool Scheduler::step() {
  if (stop_requested_) return false;
  if (heap_.empty()) return false;
  const EventEntry entry = heap_.top();
  heap_.pop();
  skim_dead_heap_top();
  now_ = entry.at;
  ++executed_;
  // Move the callback out of the arena before invoking it: the callback may
  // schedule (growing slots_ and relocating every Slot) or cancel, and must
  // never execute out of storage that can move underneath it.
  Callback cb = std::move(slots_[entry.slot].cb);
  const bool last = slots_[entry.slot].remaining <= 1;
  if (last) {
    // Freed before the callback runs, so cancel(own id) from inside the
    // final firing reports false — the event is no longer pending.
    release_slot(entry.slot);
  } else {
    --slots_[entry.slot].remaining;
  }
  cb();
  if (!last) {
    // Continue the train unless the callback cancelled it (generation
    // mismatch). The fresh seq drawn here matches the chained-schedule
    // pattern trains replace, which also sequenced each next event at the
    // previous firing — so pop order is byte-identical.
    Slot& slot = slots_[entry.slot];
    if (slot.armed && slot.gen == entry.gen) {
      slot.cb = std::move(cb);
      // Re-enqueued at fire time (birth = now), like the chained pattern.
      heap_.push(EventEntry{entry.at + slot.stride, now_, draw_rank(slot.origin), entry.slot,
                            slot.gen, slot.origin});
    }
  }
  return true;
}

void Scheduler::run() {
  stop_requested_ = false;
  while (step()) {
  }
}

void Scheduler::run_until(Time until) {
  stop_requested_ = false;
  while (!stop_requested_) {
    // Break on live_ == 0, not on next == infinity: an event scheduled
    // at exactly Time::infinity() must still fire under
    // run_until(Time::infinity()) ("events at exactly `until` do fire").
    if (live_ == 0 || next_event_time() > until) break;
    step();
  }
  if (!stop_requested_ && now_ < until) now_ = until;
}

}  // namespace rss::sim
