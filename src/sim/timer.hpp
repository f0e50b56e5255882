#pragma once

#include "sim/event_entry.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace rss::sim {

/// A restartable one-shot deadline — a TCP retransmission or delayed-ACK
/// timer — that keeps at most one event in the scheduler however often it
/// is moved.
///
/// set_in(d) draws the key a fresh schedule_in(d) would arm and records it
/// as the deadline. Only a deadline earlier than the event already armed
/// (rare: an RTO that shrank) cancels that event and arms the new key.
/// Otherwise the armed event stays; when it fires under a key other than
/// the recorded one, it re-arms itself under the recorded key. "Other" is
/// the whole key, not just the time: a key drawn later for the same instant
/// pops later. The recorded key is never before the armed one, so it is
/// back in the heap before any later key pops, and `on_expire` runs exactly
/// where a timer that cancels and re-arms on every set_in would run it (see
/// EventKey).
///
/// clear() only drops the deadline: the armed event stays in the heap as a
/// live no-op until its own time. Nothing that fires, or when, depends on
/// that, but three readings of the scheduler do: pending() and empty()
/// count the no-op, run() with no horizon runs on to it (and leaves now()
/// there), and next_event_time() can report it, which lets a
/// PartitionedEngine open a window at it. Cancelling instead would leave a
/// dead heap entry behind on every clear — the per-ACK cost this class
/// exists to remove.
///
/// Every TCP flow holds two, so the expiry action is a plain function
/// pointer and its argument rather than an InlineCallback, which would
/// triple the size. The event captures `this`: a Timer does not move, and
/// must outlive every run of its scheduler while an event is armed, like
/// the object that owns it.
class Timer {
 public:
  using Expire = void (*)(void* owner);

  /// At expiry, runs `on_expire(owner)`.
  Timer(Scheduler& scheduler, Expire on_expire, void* owner)
      : sched_{scheduler}, on_expire_{on_expire}, owner_{owner} {}
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// (Re)start: expire `delay` from now, replacing any earlier deadline.
  void set_in(Time delay) {
    deadline_ = sched_.draw_key(0, sched_.now() + delay);
    has_deadline_ = true;
    if (armed_.valid()) {
      // A key drawn now is before the armed one only at an earlier time:
      // at the same time it has the later birth, or the later rank.
      deadline_armed_ = false;
      if (deadline_.at >= armed_at_) return;
      sched_.cancel(armed_);
    }
    arm();
  }

  /// Stop: on_expire will not run until the next set_in.
  void clear() { has_deadline_ = false; }

  /// Whether a deadline is set (cleared by clear() and by expiry).
  [[nodiscard]] bool pending() const { return has_deadline_; }

 private:
  void arm() {
    armed_at_ = deadline_.at;
    deadline_armed_ = true;
    armed_ = sched_.schedule_keyed(deadline_, [this] { fire(); });
  }

  void fire() {
    armed_ = EventId{};
    if (!has_deadline_) return;
    if (!deadline_armed_) {
      arm();
      return;
    }
    has_deadline_ = false;
    on_expire_(owner_);
  }

  Scheduler& sched_;
  Expire on_expire_;
  void* owner_;
  EventKey deadline_{};
  Time armed_at_{};
  EventId armed_{};
  bool has_deadline_{false};
  /// The armed event carries exactly deadline_'s key.
  bool deadline_armed_{false};
};

}  // namespace rss::sim
