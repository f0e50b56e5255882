#include "scenario/execution.hpp"

#include <algorithm>
#include <thread>

namespace rss::scenario {

std::size_t ExecutionPolicy::hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t ExecutionPolicy::resolve_budget(std::size_t requested) {
  if (requested == 0) requested = execution_defaults().thread_budget;
  return requested != 0 ? requested : hardware_threads();
}

std::size_t ExecutionPolicy::resolve_threads(std::size_t work_items) const {
  return std::clamp<std::size_t>(resolve_budget(threads), 1,
                                 std::max<std::size_t>(work_items, 1));
}

ExecutionDefaults& execution_defaults() {
  static ExecutionDefaults defaults;
  return defaults;
}

}  // namespace rss::scenario
