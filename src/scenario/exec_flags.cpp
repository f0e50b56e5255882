#include "scenario/exec_flags.hpp"

#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace rss::scenario {

namespace {

[[nodiscard]] bool parse_count(const char* flag, int argc, char** argv, int& i,
                               std::size_t& out) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "%s needs a count argument\n", flag);
    return false;
  }
  char* end = nullptr;
  const unsigned long long v = std::strtoull(argv[++i], &end, 10);
  if (end == argv[i] || *end != '\0') {
    std::fprintf(stderr, "%s: '%s' is not a count\n", flag, argv[i]);
    return false;
  }
  out = static_cast<std::size_t>(v);
  return true;
}

}  // namespace

ExecFlags::Parse ExecFlags::parse(int argc, char** argv, int& i) {
  const std::string_view arg = argv[i];
  if (arg == "--jobs")
    return parse_count("--jobs", argc, argv, i, jobs) ? Parse::kConsumed : Parse::kError;
  if (arg == "--partitions")
    return parse_count("--partitions", argc, argv, i, partitions) ? Parse::kConsumed
                                                                  : Parse::kError;
  return Parse::kNotMine;
}

const char* ExecFlags::help() {
  return "  --jobs <n>               total thread budget shared by sweep points and\n"
         "                           partition engines (default: all cores)\n"
         "  --partitions <n>         run each scenario across n partitions\n";
}

void ExecFlags::install() const {
  ExecutionDefaults& defaults = execution_defaults();
  if (jobs != 0) defaults.thread_budget = jobs;
  if (partitions != 0) defaults.partitions = partitions;
}

void ExecFlags::apply(ExecutionPolicy& policy) const {
  if (partitions != 0) policy.partitions = partitions;
}

}  // namespace rss::scenario
