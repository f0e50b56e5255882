// The "execution" spec block and the ExecutionPolicy surface: typed
// validation of every field, byte-stable round trips, the typed rejection
// of the removed "backend" key, and the policy resolution rules the
// builder applies.

#include "scenario/spec_io.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>

#include "scenario/exec_flags.hpp"
#include "scenario/execution.hpp"
#include "scenario/spec_cli.hpp"
#include "scenario/sweep.hpp"

namespace rss::scenario {
namespace {

using spec::parse_scenario_spec;
using spec::ScenarioSpec;
using spec::serialize_scenario_spec;
using spec::SpecError;

constexpr const char* kMinimalTopology = R"({
  "nodes": ["a", "b"],
  "links": [{"a": "a", "b": "b", "delay": "10ms",
             "a_dev": {"rate": "100mbps"}, "b_dev": {"rate": "100mbps"}}]
})";

[[nodiscard]] std::string with_execution(const std::string& execution_json) {
  std::string doc = kMinimalTopology;
  doc.insert(doc.rfind('}'), ",\n  \"execution\": " + execution_json + "\n");
  return doc;
}

TEST(ExecutionSpec, ParsesEveryField) {
  const ScenarioSpec s = parse_scenario_spec(with_execution(
      R"({"partitions": 4, "strategy": "block", "threads": 8})"));
  const ExecutionPolicy& p = s.topology.execution;
  EXPECT_EQ(p.partitions, 4u);
  EXPECT_EQ(p.strategy, PartitionStrategy::kBlock);
  EXPECT_EQ(p.threads, 8u);
}

TEST(ExecutionSpec, DefaultsWhenAbsent) {
  const ScenarioSpec s = parse_scenario_spec(kMinimalTopology);
  EXPECT_TRUE(s.topology.execution.is_default());
  EXPECT_FALSE(s.topology.execution.partitioned());
}

TEST(ExecutionSpec, UnknownFieldIsTypedError) {
  try {
    (void)parse_scenario_spec(with_execution(R"({"paritions": 4})"));
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.code(), SpecError::Code::kUnknownField);
    EXPECT_EQ(e.field(), "execution.paritions");
  }
}

TEST(ExecutionSpec, ZeroPartitionsIsTypedError) {
  try {
    (void)parse_scenario_spec(with_execution(R"({"partitions": 0})"));
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.code(), SpecError::Code::kBadValue);
    EXPECT_EQ(e.field(), "execution.partitions");
  }
}

TEST(ExecutionSpec, BadStrategyIsTypedError) {
  try {
    (void)parse_scenario_spec(with_execution(R"({"strategy": "zigzag"})"));
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.code(), SpecError::Code::kBadValue);
    EXPECT_EQ(e.field(), "execution.strategy");
  }
}

// The binary heap is the only event queue, so "backend" is rejected
// wherever a spec used to accept it, with a message that says why.
TEST(ExecutionSpec, RemovedBackendKeyIsTypedError) {
  std::string top_level = kMinimalTopology;
  top_level.insert(top_level.rfind('}'), ",\n  \"backend\": \"binary_heap\"\n");
  const std::string in_execution = with_execution(R"({"backend": "binary_heap"})");
  for (const auto& [doc, field] : {std::pair{top_level, "backend"},
                                   std::pair{in_execution, "execution.backend"}}) {
    try {
      (void)parse_scenario_spec(doc);
      FAIL() << "expected SpecError for " << field;
    } catch (const SpecError& e) {
      EXPECT_EQ(e.code(), SpecError::Code::kUnknownField);
      EXPECT_EQ(e.field(), field);
      EXPECT_NE(std::string{e.what()}.find("binary heap is the only event queue"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ExecutionSpec, RemovedCliFlagsAreNotExecutionFlags) {
  for (const char* flag : {"--backend", "--threads"}) {
    char arg0[] = "rss_scenario";
    std::string name = flag;
    char value[] = "1";
    char* argv[] = {arg0, name.data(), value};
    int i = 1;
    ExecFlags exec;
    EXPECT_EQ(exec.parse(3, argv, i), ExecFlags::Parse::kNotMine) << flag;
    EXPECT_EQ(i, 1) << flag;
  }
}

TEST(ExecutionSpec, RoundTripIsByteStable) {
  const std::string doc = with_execution(R"({"partitions": 4, "threads": 2})");
  const std::string emitted = serialize_scenario_spec(parse_scenario_spec(doc));
  EXPECT_EQ(serialize_scenario_spec(parse_scenario_spec(emitted)), emitted);
  EXPECT_NE(emitted.find("\"execution\""), std::string::npos);
  EXPECT_NE(emitted.find("\"partitions\": 4"), std::string::npos);
}

TEST(ExecutionSpec, DefaultExecutionIsElidedOnEmit) {
  // A spec without an execution block must serialize without one — that is
  // what keeps every pre-execution golden byte-identical.
  const std::string emitted = serialize_scenario_spec(parse_scenario_spec(kMinimalTopology));
  EXPECT_EQ(emitted.find("\"execution\""), std::string::npos);
  EXPECT_EQ(serialize_scenario_spec(parse_scenario_spec(emitted)), emitted);
}

TEST(ExecutionSpec, PolicyResolveThreadsGuardsZeroHardware) {
  ExecutionPolicy policy;
  policy.threads = 0;
  // Whatever hardware_concurrency reports (including the 0 = "unknown"
  // case, mapped to 1), the resolved count is always in [1, work_items].
  const std::size_t resolved = policy.resolve_threads(3);
  EXPECT_GE(resolved, 1u);
  EXPECT_LE(resolved, 3u);
  EXPECT_EQ(policy.resolve_threads(0), 1u);
  policy.threads = 5;
  EXPECT_EQ(policy.resolve_threads(2), 2u);
  EXPECT_EQ(policy.resolve_threads(100), 5u);
}

TEST(ExecutionSpec, ScalePresetEmitsPartitionedExecution) {
  const ScenarioSpec scale = spec::preset_spec("scale");
  EXPECT_TRUE(scale.topology.execution.partitioned());
  const std::string emitted = serialize_scenario_spec(scale);
  EXPECT_NE(emitted.find("\"execution\""), std::string::npos);
  EXPECT_EQ(serialize_scenario_spec(parse_scenario_spec(emitted)), emitted);
}

}  // namespace
}  // namespace rss::scenario
