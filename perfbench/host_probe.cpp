#include "host_probe.hpp"

#include <chrono>
#include <functional>
#include <queue>
#include <utility>

namespace perfbench {

namespace {

constexpr std::size_t kChaseSlots = std::size_t{1} << 21;  // 8 MiB of uint32
constexpr std::size_t kChaseSteps = 100'000;
constexpr std::size_t kHeapKeys = 1024;
constexpr std::size_t kHeapOps = 100'000;

/// 64-bit LCG (Knuth's MMIX constants): fixed across standard libraries,
/// unlike the std distributions.
[[nodiscard]] std::uint64_t lcg(std::uint64_t& state) {
  state = state * 6364136223846793005ULL + 1442695040888963407ULL;
  return state;
}

}  // namespace

HostProbe::HostProbe() : next_(kChaseSlots) {
  // Sattolo's shuffle of the identity gives one cycle through every slot,
  // so the chase never settles into a short, cache-resident loop.
  for (std::size_t i = 0; i < kChaseSlots; ++i) next_[i] = static_cast<std::uint32_t>(i);
  std::uint64_t state = 1;
  for (std::size_t i = kChaseSlots - 1; i > 0; --i)
    std::swap(next_[i], next_[(lcg(state) >> 33) % i]);
}

double HostProbe::sample() {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint32_t at = 0;
  for (std::size_t k = 0; k < kChaseSteps; ++k) at = next_[at];
  std::uint64_t state = at;
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> heap;
  for (std::size_t k = 0; k < kHeapKeys; ++k) heap.push(lcg(state) >> 24);
  for (std::size_t k = 0; k < kHeapOps; ++k) {
    const std::uint64_t top = heap.top();
    heap.pop();
    heap.push(top + (lcg(state) >> 44));
  }
  sink_ += heap.top();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace perfbench
