#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/table.hpp"
#include "scenario/builder.hpp"
#include "scenario/exec_flags.hpp"
#include "scenario/spec_io.hpp"
#include "scenario/topology.hpp"

namespace rss::scenario::spec {

/// Indexed congestion-control factory for a parsed spec: flow i gets the
/// variant named by spec.flow_cc[i] ("reno" when unnamed). Safe to use
/// after `spec` goes out of scope (names are resolved eagerly).
[[nodiscard]] FlowCcFactory make_flow_cc_factory(const ScenarioSpec& spec);

/// Validate the spec's graph, build its Scenario, and schedule every flow
/// start (flows with no declared start begin at t=0). Does not run. This
/// is the one build path the runner, the --roundtrip self-check and the
/// parity tests all share, so "what it means to run a spec" cannot drift
/// between them.
[[nodiscard]] std::unique_ptr<Scenario> build_scenario(const ScenarioSpec& spec);

/// Build and run every sweep point of a scenario document (points shard
/// across scenario::parallel_sweep) and emit the canonical result table:
/// one row per (point, flow) holding the sweep assignment, flow identity,
/// goodput over [run.measure_start, run.duration] and the Web100
/// stall/timeout/retransmission counters as deltas over that same window
/// (counters are snapshotted at measure_start, so warm-up is excluded).
[[nodiscard]] metrics::Table run_spec_document(const JsonValue& document,
                                               std::size_t max_threads = 0);
[[nodiscard]] metrics::Table run_spec_text(std::string_view json_text,
                                           std::size_t max_threads = 0);
[[nodiscard]] metrics::Table run_spec_file(const std::string& path,
                                           std::size_t max_threads = 0);

/// ExecFlags-driven variants: --partitions overrides every sweep
/// point's execution policy, and --jobs is one budget shared by the sweep
/// workers and the partition engines inside each point (each partitioned
/// point that doesn't pin its own thread count gets budget / workers).
[[nodiscard]] metrics::Table run_spec_document(const JsonValue& document,
                                               const ExecFlags& exec);
[[nodiscard]] metrics::Table run_spec_text(std::string_view json_text,
                                           const ExecFlags& exec);
[[nodiscard]] metrics::Table run_spec_file(const std::string& path, const ExecFlags& exec);

/// The C++ topology presets as scenario specs with Reno on every flow:
/// "wanpath", "dumbbell", "parkinglot", "chain" carry their default Config;
/// "scale" carries the reduced bench configuration of ScaleMesh (the full
/// default is a 100k-flow workload). Throws std::invalid_argument on an
/// unknown name.
[[nodiscard]] ScenarioSpec preset_spec(const std::string& name);
[[nodiscard]] std::vector<std::string> preset_names();

/// Entry point for the rss_scenario driver (see --help for the commands:
/// --run, --validate, --emit-preset, --list-presets, --roundtrip).
int scenario_main(int argc, char** argv);

}  // namespace rss::scenario::spec
