#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "artifacts/experiment.hpp"

namespace rss::artifacts {

/// Name -> experiment lookup, in registration (display) order. Registration
/// is explicit (register_builtin_experiments) rather than via static
/// initializers, so experiments in a static library cannot be silently
/// dropped by the linker.
class ExperimentRegistry {
 public:
  /// The process-wide registry used by the rss_artifacts driver. Tests may
  /// build their own instances.
  static ExperimentRegistry& instance();

  /// Throws std::invalid_argument on an empty or duplicate name.
  void add(Experiment experiment);

  [[nodiscard]] const Experiment* find(std::string_view name) const;
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::size_t size() const { return experiments_.size(); }

 private:
  std::vector<Experiment> experiments_;
};

}  // namespace rss::artifacts
