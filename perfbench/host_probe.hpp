#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A fixed piece of host work that uses no simulator code: a dependent
/// pointer chase through an 8 MiB random cycle, then pop/push churn on a
/// 1024-key binary heap. Its time tracks the shared host's speed (cache and
/// memory contention, frequency), not the build under test, so the harness
/// scales its end-to-end times by kReferenceS / (the probe's time in the
/// same run). See NOTES.md, "Host-speed scaling".
class HostProbe {
 public:
  /// The probe time at which scaled times equal wall times.
  static constexpr double kReferenceS = 0.015;

  /// Builds the chase cycle. This touches the whole table, so construct the
  /// probe only after the process's peak RSS has been read.
  HostProbe();

  /// Runs the probe once and returns its wall seconds.
  [[nodiscard]] double sample();

 private:
  std::vector<std::uint32_t> next_;
  std::uint64_t sink_{0};
};

}  // namespace perfbench
