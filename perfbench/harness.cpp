// Time-to-solution harness. Builds and runs one scenario spec through the
// public spec / ScenarioBuilder / Scenario::run_until path, times set-up and
// equal simulated slices from outside, scales those times to a fixed host
// speed measured by a probe (host_probe.hpp), checks every point's results,
// and with --trace 1 chains timing wrappers onto every NetDevice's receive and
// stall callbacks to split the run's wall time by layer. Prints one JSON
// object on stdout, which run.py turns into the benchmark's result line.
//
//   rss_perfbench --spec FILE [--seconds S] [--trace 0|1] [--trace-out FILE]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "host_probe.hpp"
#include "layers.hpp"
#include "net/codel.hpp"
#include "net/device.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "scenario/builder.hpp"
#include "scenario/execution.hpp"
#include "scenario/spec_cli.hpp"
#include "scenario/spec_io.hpp"
#include "sim/partition.hpp"
#include "sim/simulation.hpp"
#include "tcp/tcp_sender.hpp"
#include "web100/mib.hpp"
#include "web100/polling_agent.hpp"

namespace {

namespace spec = rss::scenario::spec;
using rss::scenario::Scenario;
using rss::sim::Time;
using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string spec_path;
  double seconds{10.0};
  bool trace{false};
  std::string trace_out;
};

[[nodiscard]] Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--spec") {
      args.spec_path = value;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.spec_path.empty()) throw std::invalid_argument("--spec is required");
  return args;
}

// --- results and checks ----------------------------------------------------

/// Everything the benchmark compares about one flow: against a recorded
/// reference (run.py) and between the untraced and traced run (here).
struct FlowResult {
  bool fluid{false};
  double goodput_mbps{0};
  std::uint64_t bytes_acked{0};
  std::uint64_t bytes_sent{0};
  std::uint64_t send_stalls{0};
  std::uint64_t pkts_retrans{0};
  std::uint64_t timeouts{0};

  friend bool operator==(const FlowResult&, const FlowResult&) = default;
};

/// Counters one run of a point leaves behind, summed over the scenario.
struct RunCounters {
  std::uint64_t events{0};
  std::uint64_t forwarded{0};
  std::uint64_t admitted{0};
  std::uint64_t dropped{0};
  std::uint64_t ce_marked{0};
  std::uint64_t send_stalls{0};
  std::uint64_t acks_in{0};
  std::uint64_t pkts_out{0};
  std::uint64_t pkts_retrans{0};
  std::uint64_t timeouts{0};
  std::uint64_t polls{0};
  std::uint64_t windows{0};
  std::uint64_t handoffs{0};
  std::size_t arena_slots{0};
  std::size_t workers{1};
};

/// Equal run_until slices per point, each one slice_ms sample; 250 leave
/// 12 samples beyond slice_ms_p95.
constexpr std::size_t kSlices = 250;

/// Set-up is timed in samples of kSetupBatch back-to-back set-ups, so one
/// sample spans several times the sub-millisecond set-up; kSetupSamples of
/// them are taken before each pass.
constexpr std::size_t kSetupBatch = 8;
constexpr std::size_t kSetupSamples = 4;

/// The host-speed probe runs between passes, at most once per this many
/// seconds, so it costs a few percent of a run even when passes are short.
constexpr double kProbeEveryS = 0.5;

enum SpanKind : std::size_t { kForward, kAck, kData, kKinds };

/// Receive-span totals of one partition. Each partition is driven by one
/// worker at a time and the engine's barriers order windows, so the
/// wrappers write their partition's totals without atomics; the main
/// thread reads them only between run_until slices.
struct alignas(64) SpanTotals {
  std::int64_t ns[kKinds]{};
  std::uint64_t count[kKinds]{};
  std::uint64_t stalls{0};
};

/// One simulated slice of a traced run: host wall time plus the receive
/// spans that fell inside it, by kind.
struct SliceSpans {
  double wall_s{0};
  std::int64_t ns[kKinds]{};
  std::uint64_t count[kKinds]{};
};

struct PointRun {
  std::vector<FlowResult> flows;
  RunCounters counters;
  std::vector<std::string> failures;
  std::vector<double> slice_s;
  std::vector<std::size_t> pending;
  std::vector<SliceSpans> spans;  ///< traced runs only
  std::uint64_t stalls_seen{0};   ///< stall callbacks observed (traced runs)
  double sim_s{0};
};

struct Recorded {
  std::size_t pass{0};
  std::size_t point{0};
  bool traced{false};
  PointRun run;
};

/// The scenario's nodes, devices and per-partition simulations, found
/// through the public lookup API.
struct Wiring {
  std::vector<rss::net::Node*> nodes;
  std::vector<rss::net::NetDevice*> devices;
  std::vector<std::size_t> device_sim;  ///< device -> index into sims
  std::vector<rss::sim::Simulation*> sims;
};

[[nodiscard]] Wiring wiring_of(Scenario& scenario) {
  Wiring w;
  for (const std::string& name : scenario.spec().nodes) {
    rss::net::Node& node = scenario.node(name);
    w.nodes.push_back(&node);
    for (std::size_t d = 0; d < node.device_count(); ++d) {
      rss::net::NetDevice& dev = node.device(d);
      rss::sim::Simulation* sim = &dev.simulation();
      auto it = std::find(w.sims.begin(), w.sims.end(), sim);
      if (it == w.sims.end()) it = w.sims.insert(w.sims.end(), sim);
      w.devices.push_back(&dev);
      w.device_sim.push_back(static_cast<std::size_t>(it - w.sims.begin()));
    }
  }
  return w;
}

void attach_span_timers(const Wiring& w, std::vector<SpanTotals>& totals) {
  std::size_t k = 0;
  for (rss::net::Node* node : w.nodes) {
    const std::uint32_t id = node->id();
    for (std::size_t d = 0; d < node->device_count(); ++d, ++k) {
      rss::net::NetDevice& dev = node->device(d);
      SpanTotals* acc = &totals[w.device_sim[k]];
      auto prev_rx = dev.receive_callback();
      dev.set_receive_callback([acc, id, prev_rx](const rss::net::Packet& p,
                                                  rss::net::NetDevice& from) {
        const SpanKind kind = p.dst_node != id ? kForward : p.is_pure_ack() ? kAck : kData;
        const auto t0 = Clock::now();
        prev_rx(p, from);
        acc->ns[kind] += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
                             .count();
        ++acc->count[kind];
      });
      auto prev_stall = dev.stall_callback();
      dev.set_stall_callback([acc, prev_stall](const rss::net::Packet& p) {
        ++acc->stalls;
        if (prev_stall) prev_stall(p);
      });
    }
  }
}

[[nodiscard]] std::unique_ptr<Scenario> build(const spec::ScenarioSpec& s) {
  auto scenario =
      rss::scenario::ScenarioBuilder{s.topology}.build(spec::make_flow_cc_factory(s));
  for (std::size_t i = 0; i < s.topology.flows.size(); ++i) {
    if (!s.topology.flows[i].start) scenario->start_flow(i, Time::zero());
  }
  return scenario;
}

/// Result checks that need the live scenario: queue conservation on every
/// device and bytes_acked <= bytes_sent on every packet flow.
void check_invariants(const Wiring& w, const std::vector<FlowResult>& flows,
                      std::vector<std::string>& failures) {
  for (const rss::net::NetDevice* dev : w.devices) {
    const rss::net::PacketQueue& q = dev->ifq();
    const rss::net::QueueStats& st = q.stats();
    // CoDel sheds at the head packets it had already admitted; those left
    // neither as dequeued nor as occupancy. Its tail drops never entered.
    std::uint64_t head_drops = 0;
    if (const auto* codel = dynamic_cast<const rss::net::CodelQueue*>(&q))
      head_drops = st.dropped - codel->tail_drops();
    if (st.enqueued != st.dequeued + q.size_packets() + head_drops)
      failures.push_back("queue conservation at " + dev->name());
  }
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (!flows[i].fluid && flows[i].bytes_acked > flows[i].bytes_sent)
      failures.push_back("bytes_acked > bytes_sent on flow " + std::to_string(i));
  }
}

[[nodiscard]] PointRun run_point(const spec::ScenarioSpec& s, bool traced) {
  PointRun r;
  r.sim_s = s.run.duration.to_seconds();
  try {
    auto scenario = build(s);
    const Wiring w = wiring_of(*scenario);
    std::vector<SpanTotals> totals(w.sims.size());
    if (traced) attach_span_timers(w, totals);
    r.slice_s.reserve(kSlices);
    r.pending.reserve(kSlices);
    SliceSpans seen{};
    const std::int64_t horizon_ns = s.run.duration.nanoseconds_count();
    for (std::size_t i = 1; i <= kSlices; ++i) {
      const Time t = Time::nanoseconds(horizon_ns * static_cast<std::int64_t>(i) /
                                       static_cast<std::int64_t>(kSlices));
      const auto t0 = Clock::now();
      scenario->run_until(t);
      const double wall = seconds_between(t0, Clock::now());
      r.slice_s.push_back(wall);
      std::size_t pending = 0;
      for (const rss::sim::Simulation* sim : w.sims) pending += sim->scheduler().pending();
      r.pending.push_back(pending);
      if (traced) {
        SliceSpans slice{};
        slice.wall_s = wall;
        for (std::size_t k = 0; k < kKinds; ++k) {
          std::int64_t ns = 0;
          std::uint64_t count = 0;
          for (const SpanTotals& acc : totals) {
            ns += acc.ns[k];
            count += acc.count[k];
          }
          slice.ns[k] = ns - seen.ns[k];
          slice.count[k] = count - seen.count[k];
          seen.ns[k] = ns;
          seen.count[k] = count;
        }
        r.spans.push_back(slice);
      }
    }

    const std::vector<double> goodputs = scenario->goodputs_mbps(Time::zero(), s.run.duration);
    RunCounters& c = r.counters;
    for (std::size_t i = 0; i < scenario->flow_count(); ++i) {
      FlowResult f;
      f.goodput_mbps = goodputs[i];
      if (scenario->is_fluid(i)) {
        f.fluid = true;
      } else {
        const rss::tcp::TcpSender& sender = scenario->sender(i);
        const rss::web100::Mib& mib = sender.mib();
        f.bytes_acked = sender.bytes_acked();
        f.bytes_sent = sender.bytes_sent();
        f.send_stalls = mib.SendStall;
        f.pkts_retrans = mib.PktsRetrans;
        f.timeouts = mib.Timeouts;
        c.acks_in += mib.AcksIn;
        c.pkts_out += mib.PktsOut;
        c.pkts_retrans += mib.PktsRetrans;
        c.timeouts += mib.Timeouts;
        if (const rss::web100::PollingAgent* agent = scenario->agent(i))
          c.polls += agent->polls_taken();
      }
      r.flows.push_back(f);
    }
    c.events = scenario->events_executed();
    for (const rss::net::Node* node : w.nodes) c.forwarded += node->forwarded_packets();
    for (const rss::net::NetDevice* dev : w.devices) {
      const rss::net::QueueStats& st = dev->ifq().stats();
      c.admitted += st.enqueued;
      c.dropped += st.dropped;
      c.ce_marked += st.ce_marked;
      c.send_stalls += dev->stats().send_stalls;
    }
    for (const rss::sim::Simulation* sim : w.sims) c.arena_slots += sim->scheduler().arena_slots();
    if (const rss::sim::PartitionedEngine* engine = scenario->engine()) {
      c.windows = engine->windows_executed();
      c.handoffs = engine->handoffs_delivered();
      const std::size_t threads = engine->options().threads;
      c.workers = std::min(threads ? threads : rss::scenario::ExecutionPolicy::hardware_threads(),
                           engine->partition_count());
    }
    for (const SpanTotals& acc : totals) r.stalls_seen += acc.stalls;
    check_invariants(w, r.flows, r.failures);
  } catch (const std::exception& e) {
    r.failures.push_back(std::string{"exception: "} + e.what());
  }
  return r;
}

// --- set-up ----------------------------------------------------------------

/// One set-up of every point of the spec, in seconds per part; a sample
/// holds the mean of kSetupBatch set-ups.
struct SetupSample {
  double parse_s{0};  ///< JSON parse + sweep expand (each point re-parsed)
  double check_s{0};  ///< check_scenario_spec over every point
  double build_s{0};  ///< ScenarioBuilder::build over every point
  [[nodiscard]] double total() const { return parse_s + check_s + build_s; }
};

[[nodiscard]] SetupSample time_setup_batch(const std::string& text) {
  SetupSample s;
  for (std::size_t b = 0; b < kSetupBatch; ++b) {
    std::vector<std::unique_ptr<Scenario>> built;
    const auto t0 = Clock::now();
    const std::vector<spec::SweepPoint> points = spec::expand_scenario_spec(text);
    const auto t1 = Clock::now();
    for (const auto& p : points) spec::check_scenario_spec(p.spec);
    const auto t2 = Clock::now();
    for (const auto& p : points) built.push_back(build(p.spec));
    const auto t3 = Clock::now();
    s.parse_s += seconds_between(t0, t1);
    s.check_s += seconds_between(t1, t2);
    s.build_s += seconds_between(t2, t3);
  }
  constexpr double kPerSetup = 1.0 / static_cast<double>(kSetupBatch);
  s.parse_s *= kPerSetup;
  s.check_s *= kPerSetup;
  s.build_s *= kPerSetup;
  return s;
}

// --- statistics and output -------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
template <typename T>
[[nodiscard]] double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1.0 - frac) + static_cast<double>(v[hi]) * frac;
}

/// Mean of the fastest quarter (at least one) of repeated timings of the
/// same deterministic work. Host noise only ever slows such work down, so
/// the fast end of the sample is the work's own cost. A quarter, not the
/// single fastest, keeps the value from drifting down as a faster build
/// fits more repetitions into the budget.
[[nodiscard]] double fastest_quarter_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t keep = std::max<std::size_t>(1, v.size() / 4);
  const auto end = v.begin() + static_cast<std::ptrdiff_t>(keep);
  std::partial_sort(v.begin(), end, v.end());
  return std::accumulate(v.begin(), end, 0.0) / static_cast<double>(keep);
}

/// Set-up cost of one part (a member or member function of SetupSample)
/// over every sample of the run.
template <typename Part>
[[nodiscard]] double setup_estimate(const std::vector<SetupSample>& setups, Part part) {
  std::vector<double> v;
  for (const SetupSample& s : setups) v.push_back(std::invoke(part, s));
  return fastest_quarter_mean(std::move(v));
}

[[nodiscard]] std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

[[nodiscard]] std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// would also count the parent's footprint from before exec.
[[nodiscard]] double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (!status) return std::nan("");
  char line[256];
  double kib = std::nan("");
  while (std::fgets(line, sizeof line, status)) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

void print_point(const Recorded& rec, const spec::SweepPoint& point, bool first) {
  std::printf("%s\n    {\"pass\": %zu, \"point\": %zu, \"traced\": %s, \"events\": %llu, "
              "\"failures\": [",
              first ? "" : ",", rec.pass, rec.point, rec.traced ? "true" : "false",
              static_cast<unsigned long long>(rec.run.counters.events));
  for (std::size_t i = 0; i < rec.run.failures.size(); ++i)
    std::printf("%s\"%s\"", i ? ", " : "", json_escape(rec.run.failures[i]).c_str());
  std::printf("], \"flows\": [");
  const auto& ccs = point.spec.flow_cc;
  for (std::size_t i = 0; i < rec.run.flows.size(); ++i) {
    const FlowResult& f = rec.run.flows[i];
    std::printf("%s\n      {\"cc\": \"%s\", \"fluid\": %s, \"goodput_mbps\": %s, "
                "\"bytes_acked\": %llu, \"bytes_sent\": %llu, \"send_stalls\": %llu, "
                "\"pkts_retrans\": %llu, \"timeouts\": %llu}",
                i ? "," : "", json_escape(i < ccs.size() ? ccs[i] : "reno").c_str(),
                f.fluid ? "true" : "false", num(f.goodput_mbps).c_str(),
                static_cast<unsigned long long>(f.bytes_acked),
                static_cast<unsigned long long>(f.bytes_sent),
                static_cast<unsigned long long>(f.send_stalls),
                static_cast<unsigned long long>(f.pkts_retrans),
                static_cast<unsigned long long>(f.timeouts));
  }
  std::printf("]}");
}

/// A phase or slice span of the traced run, kept in memory and written to
/// --trace-out when the run ends. Offsets are ns since the harness started.
struct PhaseSpan {
  std::string name;
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
};

/// The slices of one kind of pass (traced or untraced) as the benchmark
/// reports them. Every pass repeats identical, deterministic work, so each
/// (point, slice) cell is the fastest_quarter_mean of that slice over the
/// passes, and the timing metrics are taken over these cells.
struct SliceProfile {
  std::vector<double> cell_s;
  double sim_s{0};
  std::size_t passes{0};  ///< fewest complete runs of any point
  [[nodiscard]] double host_s_per_sim_s() const {
    return std::accumulate(cell_s.begin(), cell_s.end(), 0.0) / sim_s;
  }
};

[[nodiscard]] SliceProfile slice_profile(const std::vector<Recorded>& recorded, bool traced,
                                         std::size_t point_count) {
  SliceProfile profile;
  profile.passes = std::numeric_limits<std::size_t>::max();
  for (std::size_t p = 0; p < point_count; ++p) {
    std::vector<const PointRun*> runs;
    for (const Recorded& rec : recorded) {
      if (rec.traced == traced && rec.point == p && rec.run.slice_s.size() == kSlices)
        runs.push_back(&rec.run);
    }
    profile.passes = std::min(profile.passes, runs.size());
    if (runs.empty()) continue;
    profile.sim_s += runs.front()->sim_s;
    std::vector<double> samples(runs.size());
    for (std::size_t i = 0; i < kSlices; ++i) {
      for (std::size_t r = 0; r < runs.size(); ++r) samples[r] = runs[r]->slice_s[i];
      profile.cell_s.push_back(fastest_quarter_mean(samples));
    }
  }
  return profile;
}

/// Per-layer rows: span and counter totals from the traced passes, set-up
/// part estimates, the tracing overhead, and the micro rows of layers.cpp.
[[nodiscard]] std::vector<perfbench::LayerRow> layer_rows(
    const std::vector<Recorded>& recorded, const std::vector<SetupSample>& setups,
    std::size_t point_count) {
  // Counts come from the traced passes; run() checked that they equal the
  // untraced ones.
  RunCounters c;
  std::int64_t span_ns[kKinds]{};
  std::uint64_t span_count[kKinds]{};
  double thread_wall = 0;
  std::vector<std::size_t> pending;
  std::size_t passes = 0;
  double traced_sim = 0;
  for (const Recorded& rec : recorded) {
    if (!rec.traced) continue;
    if (rec.point == 0) ++passes;
    traced_sim += rec.run.sim_s;
    const RunCounters& rc = rec.run.counters;
    for (const SliceSpans& s : rec.run.spans) {
      thread_wall += s.wall_s * static_cast<double>(rc.workers);
      for (std::size_t k = 0; k < kKinds; ++k) {
        span_ns[k] += s.ns[k];
        span_count[k] += s.count[k];
      }
    }
    pending.insert(pending.end(), rec.run.pending.begin(), rec.run.pending.end());
    c.events += rc.events;
    c.forwarded += rc.forwarded;
    c.admitted += rc.admitted;
    c.dropped += rc.dropped;
    c.ce_marked += rc.ce_marked;
    c.send_stalls += rc.send_stalls;
    c.acks_in += rc.acks_in;
    c.pkts_out += rc.pkts_out;
    c.pkts_retrans += rc.pkts_retrans;
    c.timeouts += rc.timeouts;
    c.polls += rc.polls;
    c.windows += rc.windows;
    c.handoffs += rc.handoffs;
    c.arena_slots = std::max(c.arena_slots, rc.arena_slots);
  }
  const double per_pass = passes ? 1.0 / static_cast<double>(passes) : 0.0;
  const auto per_sim = [&](double v) { return traced_sim > 0 ? v / traced_sim : 0.0; };
  const auto mean_ns = [&](SpanKind k) {
    return span_count[k] ? static_cast<double>(span_ns[k]) / static_cast<double>(span_count[k])
                         : 0.0;
  };
  const double spans_s =
      static_cast<double>(span_ns[kForward] + span_ns[kAck] + span_ns[kData]) * 1e-9;
  const double admitted_or_dropped = static_cast<double>(c.admitted + c.dropped);

  std::vector<perfbench::LayerRow> rows{
      {"sim.events_per_sim_s", per_sim(static_cast<double>(c.events))},
      {"sim.pending_p50", quantile(pending, 0.5)},
      {"sim.pending_max", pending.empty() ? 0.0
                                          : static_cast<double>(
                                                *std::max_element(pending.begin(), pending.end()))},
      {"sim.arena_slots", static_cast<double>(c.arena_slots)},
      {"sim.residual_s_per_sim_s", per_sim(thread_wall - spans_s)},
      {"sim.partition.windows_per_sim_s", per_sim(static_cast<double>(c.windows))},
      {"sim.partition.handoffs_per_sim_s", per_sim(static_cast<double>(c.handoffs))},
      {"net.forward_ns", mean_ns(kForward)},
      {"net.forward_s_per_sim_s", per_sim(static_cast<double>(span_ns[kForward]) * 1e-9)},
      {"net.forwarded_per_sim_s", per_sim(static_cast<double>(c.forwarded))},
      {"net.queue.drop_ratio",
       admitted_or_dropped > 0 ? static_cast<double>(c.dropped) / admitted_or_dropped : 0.0},
      {"net.queue.ce_marked_per_sim_s", per_sim(static_cast<double>(c.ce_marked))},
      {"net.device.send_stalls", static_cast<double>(c.send_stalls) * per_pass},
      {"tcp.ack_ns", mean_ns(kAck)},
      {"tcp.ack_s_per_sim_s", per_sim(static_cast<double>(span_ns[kAck]) * 1e-9)},
      {"tcp.data_ns", mean_ns(kData)},
      {"tcp.data_s_per_sim_s", per_sim(static_cast<double>(span_ns[kData]) * 1e-9)},
      {"tcp.acks_per_sim_s", per_sim(static_cast<double>(c.acks_in))},
      {"tcp.retrans_ratio",
       c.pkts_out ? static_cast<double>(c.pkts_retrans) / static_cast<double>(c.pkts_out)
                  : 0.0},
      {"tcp.timeouts", static_cast<double>(c.timeouts) * per_pass},
      {"web100.polls_per_sim_s", per_sim(static_cast<double>(c.polls))},
      {"scenario.parse_ms", 1e3 * setup_estimate(setups, &SetupSample::parse_s)},
      {"scenario.check_ms", 1e3 * setup_estimate(setups, &SetupSample::check_s)},
      {"scenario.build_ms", 1e3 * setup_estimate(setups, &SetupSample::build_s)},
      {"trace.overhead_s_per_sim_s",
       slice_profile(recorded, true, point_count).host_s_per_sim_s() -
           slice_profile(recorded, false, point_count).host_s_per_sim_s()},
  };
  for (auto& row : perfbench::micro_layer_rows()) rows.push_back(std::move(row));
  return rows;
}

/// Writes the phase spans and the first traced pass's per-slice span
/// totals to `path`.
void write_trace(const std::string& path, const std::vector<PhaseSpan>& phases,
                 const std::vector<Recorded>& recorded) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) throw std::runtime_error("cannot write " + path);
  std::fprintf(out, "{\"phases\": [");
  for (std::size_t i = 0; i < phases.size(); ++i)
    std::fprintf(out, "%s\n  {\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}",
                 i ? "," : "", json_escape(phases[i].name).c_str(),
                 static_cast<long long>(phases[i].start_ns),
                 static_cast<long long>(phases[i].end_ns));
  std::fprintf(out, "\n], \"slices\": [");
  bool first = true;
  for (const Recorded& rec : recorded) {
    if (!rec.traced || rec.pass != 0) continue;
    for (std::size_t i = 0; i < rec.run.spans.size(); ++i) {
      const SliceSpans& s = rec.run.spans[i];
      std::fprintf(out,
                   "%s\n  {\"pass\": %zu, \"point\": %zu, \"slice\": %zu, \"wall_ns\": %lld, "
                   "\"forward_ns\": %lld, \"forward_n\": %llu, \"ack_ns\": %lld, "
                   "\"ack_n\": %llu, \"data_ns\": %lld, \"data_n\": %llu, \"pending\": %zu}",
                   first ? "" : ",", rec.pass, rec.point, i,
                   static_cast<long long>(s.wall_s * 1e9), static_cast<long long>(s.ns[kForward]),
                   static_cast<unsigned long long>(s.count[kForward]),
                   static_cast<long long>(s.ns[kAck]),
                   static_cast<unsigned long long>(s.count[kAck]),
                   static_cast<long long>(s.ns[kData]),
                   static_cast<unsigned long long>(s.count[kData]), rec.run.pending[i]);
      first = false;
    }
  }
  std::fprintf(out, "\n]}\n");
  std::fclose(out);
}

int run(const Args& args) {
  const auto started = Clock::now();
  const auto offset_ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - started).count();
  };
  std::vector<PhaseSpan> phases;

  const std::string text = spec::read_spec_file(args.spec_path);
  const std::vector<spec::SweepPoint> points = spec::expand_scenario_spec(text);

  // Set-up is sampled before every pass, so its samples span the whole run
  // and a slow stretch of host time reaches only some of them. The phase
  // spans lay out the first sample's per-set-up means from its start.
  std::vector<SetupSample> setups;
  const auto time_setups = [&] {
    for (std::size_t r = 0; r < kSetupSamples; ++r) {
      const auto t0 = Clock::now();
      setups.push_back(time_setup_batch(text));
      if (setups.size() == 1) {
        const SetupSample& s = setups.front();
        const std::int64_t a = offset_ns(t0);
        const auto ns = [](double sec) { return static_cast<std::int64_t>(sec * 1e9); };
        phases.push_back({"parse", a, a + ns(s.parse_s)});
        phases.push_back({"check", a + ns(s.parse_s), a + ns(s.parse_s + s.check_s)});
        phases.push_back({"build", a + ns(s.parse_s + s.check_s), a + ns(s.total())});
      }
    }
  };
  // Run passes: every point built and run to its horizon in equal slices,
  // repeated while the next pass fits in --seconds (at least one pass). A
  // traced run alternates untraced and traced passes of the same points.
  std::vector<Recorded> recorded;
  double peak_mb = 0;
  std::optional<perfbench::HostProbe> probe;
  std::vector<double> probe_s;
  Clock::time_point last_probe;
  const auto run_start = Clock::now();
  for (std::size_t pass = 0;; ++pass) {
    time_setups();
    const std::vector<bool> kinds =
        args.trace ? std::vector<bool>{false, true} : std::vector<bool>{false};
    for (const bool traced : kinds) {
      for (std::size_t p = 0; p < points.size(); ++p) {
        const auto t0 = Clock::now();
        Recorded rec{pass, p, traced, run_point(points[p].spec, traced)};
        if (traced) {
          phases.push_back(
              {"run point " + std::to_string(p), offset_ns(t0), offset_ns(Clock::now())});
          const Recorded& base = recorded[recorded.size() - points.size()];
          if (rec.run.flows != base.run.flows ||
              rec.run.counters.events != base.run.counters.events)
            rec.run.failures.push_back("traced run changed the simulation's results");
          if (rec.run.stalls_seen != rec.run.counters.send_stalls)
            rec.run.failures.push_back("stall callbacks disagree with device send_stalls");
        }
        recorded.push_back(std::move(rec));
      }
    }
    // The first pass is the workload solved once; later passes repeat it.
    if (pass == 0) {
      peak_mb = peak_rss_mb();
      probe.emplace();
    }
    if (probe_s.empty() || seconds_between(last_probe, Clock::now()) >= kProbeEveryS) {
      probe_s.push_back(probe->sample());
      last_probe = Clock::now();
    }
    // Start another pass only if it should end within the budget.
    const double elapsed = seconds_between(run_start, Clock::now());
    if (elapsed + elapsed / static_cast<double>(pass + 1) > args.seconds) break;
  }

  // End-to-end metrics come from untraced passes only. Their times are
  // scaled to the host speed at which the probe takes kReferenceS.
  const SliceProfile untraced = slice_profile(recorded, false, points.size());
  const double probe_est = fastest_quarter_mean(probe_s);
  const double scale = perfbench::HostProbe::kReferenceS / probe_est;
  const auto emit_start = Clock::now();
  std::printf("{\n  \"points\": [");
  for (std::size_t i = 0; i < recorded.size(); ++i)
    print_point(recorded[i], points[recorded[i].point], i == 0);
  std::printf("\n  ],\n  \"e2e\": {\"host_s_per_sim_s\": %s, \"slice_ms_p50\": %s, "
              "\"slice_ms_p95\": %s, \"slice_samples\": %zu, \"passes\": %zu, "
              "\"setup_s\": %s, \"peak_rss_mb\": %s, \"probe_ms\": %s, "
              "\"probe_samples\": %zu}",
              num(scale * untraced.host_s_per_sim_s()).c_str(),
              num(scale * 1e3 * quantile(untraced.cell_s, 0.5)).c_str(),
              num(scale * 1e3 * quantile(untraced.cell_s, 0.95)).c_str(), untraced.cell_s.size(),
              untraced.passes,
              num(scale * setup_estimate(setups, &SetupSample::total)).c_str(),
              num(peak_mb).c_str(), num(1e3 * probe_est).c_str(), probe_s.size());

  if (args.trace) {
    const auto rows = layer_rows(recorded, setups, points.size());
    std::printf(",\n  \"layers\": {");
    for (std::size_t i = 0; i < rows.size(); ++i)
      std::printf("%s\n    \"%s\": %s", i ? "," : "", rows[i].first.c_str(),
                  num(rows[i].second).c_str());
    std::printf("\n  }");
  }
  std::printf("\n}\n");
  std::fflush(stdout);

  if (args.trace && !args.trace_out.empty()) {
    phases.push_back({"emit", offset_ns(emit_start), offset_ns(Clock::now())});
    write_trace(args.trace_out, phases, recorded);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rss_perfbench: %s\n", e.what());
    return 2;
  }
}
