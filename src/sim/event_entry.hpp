#pragma once

#include <cstdint>
#include <type_traits>

#include "sim/time.hpp"

namespace rss::sim {

/// The pop-order key of one scheduled event. Pop order is
/// event_key_before (below): (at, birth), then the hashed tagged streams,
/// then the untagged stream in plain insertion order. `birth` is the
/// simulation time at which the key was drawn and `rank` the draw's rank
/// within its `origin` stream. Origin 0 is the default stream: for a single
/// simulation birth is non-decreasing in rank there (now() never runs
/// backwards), so the birth tie-break is provably inert and pop order is
/// plain (time, insertion-sequence), which keeps every reproduced artifact
/// deterministic.
///
/// A key is a value, drawn once (Scheduler::draw_key) and armed whenever
/// its holder likes (Scheduler::schedule_keyed): pop order depends only on
/// the keys, so an event armed late pops exactly where it would have popped
/// had it been armed at its birth, provided it is armed before any later key
/// pops. Three holders use that:
///   - a cross-partition handoff is physically inserted at the window
///     boundary drain but carries the source's transmit time as its birth;
///     `origin` (a stable per-node label assigned by the scenario builder)
///     plus the per-origin `rank` then give same-(at, birth) events an
///     *intrinsic* total order — a pure function of the sending node's local
///     history — so sequential and partitioned runs resolve ties identically
///     no matter which scheduler an event was physically inserted into, or
///     when;
///   - a link's delivery line (net/delivery_line.hpp) keeps every in-flight
///     packet's key and arms only the earliest;
///   - a sim::Timer keeps its deadline's key and arms it when the event it
///     already has in the heap fires early.
struct EventKey {
  Time at;
  Time birth;
  std::uint64_t rank{0};
  std::uint32_t origin{0};

  friend constexpr bool operator==(const EventKey&, const EventKey&) = default;
};

/// One queued occurrence of a scheduled event — the entry type the
/// Scheduler's binary heap stores. It is a 40-byte trivially-copyable
/// handle: the callback itself lives in the Scheduler's slot arena,
/// addressed by `slot` and validated by `gen` (a generation counter that
/// detects stale entries left behind by lazy cancellation and slot reuse).
struct EventEntry {
  EventKey key;
  std::uint32_t slot{0};
  std::uint32_t gen{0};
};

static_assert(std::is_trivially_copyable_v<EventEntry>);
static_assert(sizeof(EventEntry) == 40);

/// splitmix64 finalizer over (origin, rank) — the tagged streams' tie key.
/// A *fixed* per-node priority at same-(at, birth) ties would phase-lock
/// synchronized flows (equal access rates make exact delivery ties routine,
/// and the same node winning every one starves the rest — Jain fairness
/// craters); hashing keeps the resolution deterministic and intrinsic while
/// statistically unbiased across nodes, like the insertion order it
/// replaces.
[[nodiscard]] constexpr std::uint64_t event_tie_hash(std::uint32_t origin,
                                                     std::uint64_t rank) {
  std::uint64_t x = (static_cast<std::uint64_t>(origin) << 32) ^ rank;
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Strict-weak "fires earlier" order of the Scheduler's heap:
/// (at, birth), then tagged origins (hashed, ties by (origin, rank)) before
/// the untagged stream 0 (plain insertion sequence — the legacy contract
/// "same-timestamp events fire in insertion order" is untouched because an
/// untagged run never compares across classes). The class split keeps the
/// order transitive: hashed and sequential keys never interleave.
[[nodiscard]] constexpr bool event_key_before(const EventKey& a, const EventKey& b) {
  if (a.at != b.at) return a.at < b.at;
  if (a.birth != b.birth) return a.birth < b.birth;
  const bool a_tagged = a.origin != 0;
  const bool b_tagged = b.origin != 0;
  if (a_tagged != b_tagged) return a_tagged;  // deliveries before local events
  if (a_tagged) {
    const std::uint64_t ha = event_tie_hash(a.origin, a.rank);
    const std::uint64_t hb = event_tie_hash(b.origin, b.rank);
    if (ha != hb) return ha < hb;
    if (a.origin != b.origin) return a.origin < b.origin;
  }
  return a.rank < b.rank;
}

}  // namespace rss::sim
