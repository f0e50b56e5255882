#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "metrics/table.hpp"

namespace rss::artifacts {

/// Per-column acceptance band for the golden differ. A fresh value x passes
/// against golden value g iff |x - g| <= max(abs, rel * |g|); {0, 0} means
/// exact numeric equality. Tolerances exist to absorb the only legitimate
/// drift sources — CSV formatting quantization and libm (log/exp) ulp
/// differences across glibc builds feeding the Rng/HighSpeed paths — while
/// still failing on any real change to the reproduced numbers.
struct ColumnTolerance {
  double abs{0.0};
  double rel{0.0};
};

struct Tolerances {
  /// Applied to numeric columns without a per_column entry.
  ColumnTolerance fallback{};
  std::map<std::string, ColumnTolerance, std::less<>> per_column;

  [[nodiscard]] const ColumnTolerance& for_column(std::string_view name) const;
};

/// What one experiment run produces: the canonical table (the artifact that
/// is goldened and diffed) plus its human-facing shape verdict.
struct ExperimentResult {
  metrics::Table table;
  bool reproduced{true};
  std::string verdict;
};

/// A registered experiment: `name` is both the registry key and the golden
/// file stem (artifacts/goldens/<name>.csv).
struct Experiment {
  std::string name;
  std::string title;
  Tolerances tolerances;
  std::function<ExperimentResult()> run;
};

/// printf-style formatting for verdict strings (libstdc++ in the supported
/// toolchains predates std::format).
[[nodiscard]] std::string strf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace rss::artifacts
