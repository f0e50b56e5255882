#include "sim/scheduler.hpp"

#include <stdexcept>
#include <utility>

namespace rss::sim {

EventId Scheduler::schedule_keyed(const EventKey& key, Callback cb) {
  if (key.at < now_) throw std::invalid_argument("Scheduler: event scheduled in the past");
  if (key.birth > key.at)
    throw std::invalid_argument("Scheduler: event born after its own fire time");
  if (!cb) throw std::invalid_argument("Scheduler: null callback");
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.cb = std::move(cb);
  slot.armed = true;
  ++live_;
  heap_.push(EventEntry{key, index, slot.gen});
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
  return heap_.empty() ? Time::infinity() : heap_.top().key.at;
}

bool Scheduler::step() {
  if (stop_requested_) return false;
  if (heap_.empty()) return false;
  const EventEntry entry = heap_.top();
  heap_.pop();
  skim_dead_heap_top();
  now_ = entry.key.at;
  ++executed_;
  // Move the callback out of the arena before invoking it: the callback may
  // schedule (growing slots_ and relocating every Slot) or cancel, and must
  // never execute out of storage that can move underneath it.
  Callback cb = std::move(slots_[entry.slot].cb);
  // Freed before the callback runs, so cancel(own id) from inside the
  // callback reports false — the event is no longer pending.
  release_slot(entry.slot);
  cb();
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
