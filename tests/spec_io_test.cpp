#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "scenario/builder.hpp"
#include "scenario/spec_cli.hpp"
#include "scenario/spec_io.hpp"
#include "scenario/topology.hpp"

namespace rss::scenario::spec {
namespace {

using namespace rss::sim::literals;
using Code = SpecError::Code;

/// The thrown SpecError's code, or nullopt when `fn` doesn't throw it.
template <typename Fn>
std::optional<Code> spec_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const SpecError& e) {
    return e.code();
  }
  return std::nullopt;
}

/// The SpecError itself, for asserting on field/line context.
template <typename Fn>
std::optional<SpecError> spec_error_full(Fn&& fn) {
  try {
    fn();
  } catch (const SpecError& e) {
    return e;
  }
  return std::nullopt;
}

// --- JSON layer -----------------------------------------------------------

TEST(JsonParseTest, ParsesScalarsArraysAndObjects) {
  const JsonValue v = json_parse(R"({"a": 1, "b": [true, "x", null], "c": {"d": -2.5}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("a")->as_u64("a"), 1u);
  ASSERT_TRUE(v.find("b")->is_array());
  EXPECT_EQ(v.find("b")->array.size(), 3u);
  EXPECT_TRUE(v.find("b")->array[0].as_bool("b[0]"));
  EXPECT_EQ(v.find("b")->array[1].as_string("b[1]"), "x");
  EXPECT_DOUBLE_EQ(v.find("c")->find("d")->as_double("c.d"), -2.5);
}

TEST(JsonParseTest, DecodesStringEscapes) {
  const JsonValue v = json_parse(R"(["a\"b", "tab\there", "A"])");
  EXPECT_EQ(v.array[0].as_string(""), "a\"b");
  EXPECT_EQ(v.array[1].as_string(""), "tab\there");
  EXPECT_EQ(v.array[2].as_string(""), "A");
}

TEST(JsonParseTest, MalformedDocumentsReportSyntaxErrorsWithLines) {
  const auto err = spec_error_full([] { (void)json_parse("{\n  \"a\": 1,\n  oops\n}"); });
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code(), Code::kSyntax);
  EXPECT_EQ(err->line(), 3);

  EXPECT_EQ(spec_error_of([] { (void)json_parse(""); }), Code::kSyntax);
  EXPECT_EQ(spec_error_of([] { (void)json_parse("{\"a\": }"); }), Code::kSyntax);
  EXPECT_EQ(spec_error_of([] { (void)json_parse("[1, 2"); }), Code::kSyntax);
  EXPECT_EQ(spec_error_of([] { (void)json_parse("\"unterminated"); }), Code::kSyntax);
  EXPECT_EQ(spec_error_of([] { (void)json_parse("{} trailing"); }), Code::kSyntax);
  EXPECT_EQ(spec_error_of([] { (void)json_parse("01"); }), Code::kSyntax);
}

TEST(JsonParseTest, RejectsDuplicateObjectKeys) {
  EXPECT_EQ(spec_error_of([] { (void)json_parse(R"({"a": 1, "a": 2})"); }), Code::kSyntax);
}

TEST(JsonParseTest, NumbersKeepTheirLiteralText) {
  // 2^63 + 1 is not representable as a double; the literal must survive.
  const JsonValue v = json_parse(R"({"seed": 9223372036854775809})");
  EXPECT_EQ(v.find("seed")->as_u64("seed"), 9223372036854775809ull);
  EXPECT_EQ(json_serialize(*v.find("seed")), "9223372036854775809\n");
}

TEST(JsonSerializeTest, RoundTripsStably) {
  const std::string text =
      R"({"name": "x", "nodes": ["a", "b"], "deep": {"k": [1, 2.5, true, null]}})";
  const std::string once = json_serialize(json_parse(text));
  const std::string twice = json_serialize(json_parse(once));
  EXPECT_EQ(once, twice);
}

// --- unit-tagged scalars --------------------------------------------------

TEST(UnitParseTest, ParsesTimes) {
  EXPECT_EQ(parse_time("250ns", "f"), 250_ns);
  EXPECT_EQ(parse_time("10us", "f"), 10_us);
  EXPECT_EQ(parse_time("30ms", "f"), 30_ms);
  EXPECT_EQ(parse_time("2s", "f"), 2_s);
  EXPECT_EQ(parse_time("1.5s", "f"), 1500_ms);
  EXPECT_EQ(parse_time("0s", "f"), sim::Time::zero());
}

TEST(UnitParseTest, FormatsTimesInLargestExactUnit) {
  EXPECT_EQ(format_time(30_ms), "30ms");
  EXPECT_EQ(format_time(1500_ms), "1500ms");
  EXPECT_EQ(format_time(2_s), "2s");
  EXPECT_EQ(format_time(1234_ns), "1234ns");
  EXPECT_EQ(format_time(sim::Time::zero()), "0s");
  // Round trip: parse(format(t)) == t.
  for (const sim::Time t : {1_ns, 999_us, 100_ms, 60_s}) {
    EXPECT_EQ(parse_time(format_time(t), "f"), t);
  }
}

TEST(UnitParseTest, ParsesRates) {
  EXPECT_EQ(parse_rate("9600bps", "f"), net::DataRate::bps(9600));
  EXPECT_EQ(parse_rate("56kbps", "f"), net::DataRate::kbps(56));
  EXPECT_EQ(parse_rate("100mbps", "f"), net::DataRate::mbps(100));
  EXPECT_EQ(parse_rate("1gbps", "f"), net::DataRate::gbps(1));
  EXPECT_EQ(parse_rate("2.5gbps", "f"), net::DataRate::mbps(2500));
  EXPECT_EQ(format_rate(net::DataRate::mbps(100)), "100mbps");
  EXPECT_EQ(format_rate(net::DataRate::bps(2500)), "2500bps");
}

TEST(UnitParseTest, BadUnitsAreTypedErrorsWithFieldContext) {
  const auto err = spec_error_full([] { (void)parse_time("30m", "links[0].delay"); });
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code(), Code::kBadValue);
  EXPECT_EQ(err->field(), "links[0].delay");
  EXPECT_NE(std::string{err->what()}.find("links[0].delay"), std::string::npos);

  EXPECT_EQ(spec_error_of([] { (void)parse_time("30", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_time("fast", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_time("-5ms", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_rate("100mps", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_rate("100", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_rate("0bps", "f"); }), Code::kBadValue);
}

TEST(UnitParseTest, NumericPartIsStrict) {
  // strtod alone would accept all of these; the unit grammar must not.
  EXPECT_EQ(spec_error_of([] { (void)parse_time(" 30ms", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_time("+30ms", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_time("0x10ms", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_time("1e3ms", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_time("1.ms", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_time(".5s", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_rate("0x1egbps", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_rate("1e2mbps", "f"); }), Code::kBadValue);
}

// --- scenario schema ------------------------------------------------------

constexpr const char* kMinimalSpec = R"({
  "nodes": ["a", "b"],
  "links": [{"a": "a", "b": "b", "delay": "10ms"}],
  "flows": [{"src": "a", "dst": "b"}]
})";

TEST(ScenarioSpecTest, ParsesMinimalSpecWithDefaults) {
  const ScenarioSpec s = parse_scenario_spec(kMinimalSpec);
  EXPECT_EQ(s.name, "scenario");
  EXPECT_EQ(s.topology.seed, 1u);
  EXPECT_TRUE(s.topology.execution.is_default());
  ASSERT_EQ(s.topology.nodes.size(), 2u);
  ASSERT_EQ(s.topology.links.size(), 1u);
  EXPECT_EQ(s.topology.links[0].delay, 10_ms);
  EXPECT_EQ(s.topology.links[0].a_dev.rate, net::DataRate::gbps(1));
  ASSERT_EQ(s.topology.flows.size(), 1u);
  ASSERT_EQ(s.flow_cc.size(), 1u);
  EXPECT_EQ(s.flow_cc[0], "reno");
  EXPECT_EQ(s.run.duration, 30_s);
  EXPECT_TRUE(s.sweep.empty());
}

TEST(ScenarioSpecTest, UnknownKeysAreRejectedAtEveryLevel) {
  const auto top = spec_error_full(
      [] { (void)parse_scenario_spec(R"({"nodes": ["a"], "nodez": 1})"); });
  ASSERT_TRUE(top.has_value());
  EXPECT_EQ(top->code(), Code::kUnknownField);
  EXPECT_EQ(top->field(), "nodez");

  const auto nested = spec_error_full([] {
    (void)parse_scenario_spec(R"({
      "nodes": ["a", "b"],
      "links": [{"a": "a", "b": "b", "a_dev": {"ifq_pakcets": 10}}]
    })");
  });
  ASSERT_TRUE(nested.has_value());
  EXPECT_EQ(nested->code(), Code::kUnknownField);
  EXPECT_EQ(nested->field(), "links[0].a_dev.ifq_pakcets");
  EXPECT_GT(nested->line(), 1);
}

TEST(ScenarioSpecTest, MissingRequiredFieldsAreTyped) {
  EXPECT_EQ(spec_error_of([] { (void)parse_scenario_spec(R"({"seed": 1})"); }),
            Code::kMissingField);
  EXPECT_EQ(spec_error_of([] {
              (void)parse_scenario_spec(R"({"nodes": ["a", "b"], "links": [{"a": "a"}]})");
            }),
            Code::kMissingField);
  EXPECT_EQ(spec_error_of([] {
              (void)parse_scenario_spec(R"({"nodes": ["a", "b"], "flows": [{"src": "a"}]})");
            }),
            Code::kMissingField);
}

TEST(ScenarioSpecTest, WrongTypesAreTyped) {
  EXPECT_EQ(spec_error_of([] { (void)parse_scenario_spec(R"({"nodes": "a"})"); }),
            Code::kWrongType);
  EXPECT_EQ(spec_error_of([] { (void)parse_scenario_spec(R"({"nodes": ["a"], "seed": "x"})"); }),
            Code::kWrongType);
  EXPECT_EQ(spec_error_of([] { (void)parse_scenario_spec(R"([1, 2, 3])"); }), Code::kWrongType);
}

TEST(ScenarioSpecTest, BadEnumValuesAreTyped) {
  EXPECT_EQ(spec_error_of([] {
              (void)parse_scenario_spec(R"({
                "nodes": ["a", "b"],
                "links": [{"a": "a", "b": "b", "a_dev": {"qdisc": "sfq"}}]
              })");
            }),
            Code::kBadValue);
  const auto cc = spec_error_full([] {
    (void)parse_scenario_spec(R"({
      "nodes": ["a", "b"],
      "links": [{"a": "a", "b": "b"}],
      "flows": [{"src": "a", "dst": "b", "cc": "warp-drive"}]
    })");
  });
  ASSERT_TRUE(cc.has_value());
  EXPECT_EQ(cc->code(), Code::kBadValue);
  EXPECT_EQ(cc->field(), "flows[0].cc");
}

TEST(ScenarioSpecTest, RedOptionsRequireRedQdisc) {
  EXPECT_EQ(spec_error_of([] {
              (void)parse_scenario_spec(R"({
                "nodes": ["a", "b"],
                "links": [{"a": "a", "b": "b", "a_dev": {"red": {"min_threshold": 5}}}]
              })");
            }),
            Code::kBadValue);
  const ScenarioSpec s = parse_scenario_spec(R"({
    "nodes": ["a", "b"],
    "links": [{"a": "a", "b": "b",
               "a_dev": {"qdisc": "red", "red": {"min_threshold": 5, "max_threshold": 20}}}]
  })");
  EXPECT_EQ(s.topology.links[0].a_dev.qdisc, QueueDiscipline::kRed);
  EXPECT_DOUBLE_EQ(s.topology.links[0].a_dev.red.min_threshold, 5.0);
}

TEST(ScenarioSpecTest, DanglingLinkEndpointIsATopologyError) {
  // Parsing succeeds (the file is well-formed JSON with known keys); the
  // graph check raises the same typed TopologyError the C++ builder does.
  const ScenarioSpec s = parse_scenario_spec(R"({
    "nodes": ["a", "b"],
    "links": [{"a": "a", "b": "ghost"}]
  })");
  try {
    check_scenario_spec(s);
    FAIL() << "expected TopologyError";
  } catch (const TopologyError& e) {
    EXPECT_EQ(e.code(), TopologyError::Code::kUnknownEndpoint);
  }
}

TEST(ScenarioSpecTest, UnroutableFlowIsATopologyError) {
  const ScenarioSpec s = parse_scenario_spec(R"({
    "nodes": ["a", "b", "c"],
    "links": [{"a": "a", "b": "b"}],
    "flows": [{"src": "a", "dst": "c"}]
  })");
  try {
    check_scenario_spec(s);
    FAIL() << "expected TopologyError";
  } catch (const TopologyError& e) {
    EXPECT_EQ(e.code(), TopologyError::Code::kUnroutableFlow);
  }
}

TEST(ScenarioSpecTest, FluidFlowOnZeroDelayRouteWithoutRttIsATopologyError) {
  // The unset RTT defaults to twice the route's delay, summed over both hops.
  const auto spec_with = [](const std::string& second_delay, const std::string& fluid) {
    return parse_scenario_spec(R"({
      "nodes": ["a", "r", "b"],
      "links": [{"a": "a", "b": "r", "delay": "0s"},
                {"a": "r", "b": "b", "delay": ")" + second_delay + R"("}],
      "flows": [{"src": "a", "dst": "b"},
                {"src": "a", "dst": "b", "model": "fluid", "fluid": {)" + fluid + R"(}}]
    })");
  };
  const ScenarioSpec zero = spec_with("0s", "");
  try {
    check_scenario_spec(zero);
    FAIL() << "expected TopologyError";
  } catch (const TopologyError& e) {
    EXPECT_EQ(e.code(), TopologyError::Code::kZeroFluidRtt);
    EXPECT_NE(std::string{e.what()}.find("fluid flow 1 ('a' -> 'b')"), std::string::npos)
        << e.what();
  }
  // The builder makes the same check, so a C++ caller gets the typed error too.
  EXPECT_THROW((void)ScenarioBuilder{zero.topology}.build(make_flow_cc_factory(zero)),
               TopologyError);

  EXPECT_NO_THROW(check_scenario_spec(spec_with("1ms", "")));
  EXPECT_NO_THROW(check_scenario_spec(spec_with("0s", R"("rtt": "10ms")")));
}

TEST(ScenarioSpecTest, FlowOptionsRoundTripThroughTheSchema) {
  const ScenarioSpec s = parse_scenario_spec(R"({
    "nodes": ["a", "b"],
    "links": [{"a": "a", "b": "b"}],
    "flows": [{
      "src": "a", "dst": "b", "id": 7, "start": "1500ms", "cc": "rss",
      "sender": {"mss": 1000, "enable_sack": true, "rtt": {"min_rto": "150ms"}},
      "receiver": {"ack_every": 1, "quickack_segments": 4},
      "web100": {"poll": "50ms"}
    }]
  })");
  const FlowSpec& f = s.topology.flows[0];
  EXPECT_EQ(f.flow_id, 7u);
  ASSERT_TRUE(f.start.has_value());
  EXPECT_EQ(*f.start, 1500_ms);
  EXPECT_EQ(s.flow_cc[0], "rss");
  EXPECT_EQ(f.sender.mss, 1000u);
  EXPECT_TRUE(f.sender.enable_sack);
  EXPECT_EQ(f.sender.rtt.min_rto, 150_ms);
  EXPECT_EQ(f.receiver.ack_every, 1);
  EXPECT_EQ(f.receiver.quickack_segments, 4u);
  EXPECT_TRUE(f.web100);
  EXPECT_EQ(f.web100_poll_period, 50_ms);

  // And the serialized form re-parses to the same serialized form.
  const std::string once = serialize_scenario_spec(s);
  EXPECT_EQ(serialize_scenario_spec(parse_scenario_spec(once)), once);
}

// Every spec field at a non-default value, in canonical form: a packet flow,
// a fluid flow, a RED device, a CoDel device with ecn_threshold, execution,
// run, and a sweep (zip, so `mode` is non-default too). Only the removed
// `backend` key is absent, since it is always an error. serialize(parse(x))
// must reproduce the text byte for byte, so every field has to be parsed,
// emitted, and ordered exactly as the canonical form has it.
constexpr const char* kEveryFieldSpec = R"({
  "name": "every-field",
  "seed": 7,
  "execution": {
    "partitions": 2,
    "strategy": "block",
    "threads": 3
  },
  "nodes": ["h1", "r1", "h2"],
  "links": [
    {
      "a": "h1",
      "b": "r1",
      "delay": "5ms",
      "a_dev": {
        "rate": "100mbps",
        "ifq_packets": 50,
        "qdisc": "red",
        "red": {
          "min_threshold": 5,
          "max_threshold": 20,
          "max_drop_probability": 0.2,
          "queue_weight": 0.01
        },
        "name": "h1-nic"
      },
      "b_dev": {
        "rate": "10mbps"
      }
    },
    {
      "a": "r1",
      "b": "h2",
      "delay": "20ms",
      "a_dev": {
        "qdisc": "codel",
        "codel": {
          "target": "10ms",
          "interval": "200ms"
        },
        "ecn_threshold": 30
      }
    }
  ],
  "flows": [
    {
      "src": "h1",
      "dst": "h2",
      "id": 3,
      "start": "250ms",
      "cc": "rss",
      "ecn": true,
      "sender": {
        "mss": 1000,
        "initial_seq": 11,
        "rwnd_limit_bytes": 65536,
        "stall_retry_delay": "20ms",
        "enable_sack": true,
        "cwnd_validation": true,
        "trace_cwnd": true,
        "trace_stalls": true,
        "rtt": {
          "initial_rto": "3s",
          "min_rto": "300ms",
          "max_rto": "120s",
          "alpha": 0.25,
          "beta": 0.5,
          "k": 2
        }
      },
      "receiver": {
        "initial_seq": 11,
        "advertised_window": 1048576,
        "ack_every": 1,
        "delayed_ack_timeout": "40ms",
        "enable_sack": true,
        "quickack_segments": 8
      },
      "web100": {
        "poll": "10ms"
      }
    },
    {
      "src": "h2",
      "dst": "h1",
      "id": 4,
      "start": "1s",
      "model": "fluid",
      "fluid": {
        "initial_rate": "5mbps",
        "peak_rate": "50mbps",
        "stride": "2ms",
        "packet_bytes": 1000,
        "rtt": "80ms",
        "decrease": 0.7
      }
    }
  ],
  "run": {
    "duration": "10s",
    "measure_start": "2s"
  },
  "sweep": {
    "mode": "zip",
    "axes": [
      {
        "field": "links[0].a_dev.ifq_packets",
        "values": [50, 100]
      },
      {
        "field": "flows[0].cc",
        "values": ["rss", "reno"]
      }
    ]
  }
}
)";

TEST(ScenarioSpecTest, EveryFieldRoundTripsAtANonDefaultValue) {
  const ScenarioSpec s = parse_scenario_spec(kEveryFieldSpec);
  EXPECT_EQ(serialize_scenario_spec(s), kEveryFieldSpec);
  // Spot checks that the values landed in their members, not just in text.
  EXPECT_EQ(s.topology.execution.partitions, 2u);
  EXPECT_EQ(s.topology.links[0].a_dev.qdisc, QueueDiscipline::kRed);
  EXPECT_DOUBLE_EQ(s.topology.links[0].a_dev.red.queue_weight, 0.01);
  EXPECT_EQ(s.topology.links[1].a_dev.codel.interval, 200_ms);
  EXPECT_EQ(s.topology.flows[0].sender.rtt.k, 2);
  EXPECT_EQ(s.topology.flows[0].receiver.delayed_ack_timeout, 40_ms);
  EXPECT_EQ(s.topology.flows[1].model, TrafficModel::kFluid);
  EXPECT_DOUBLE_EQ(s.topology.flows[1].fluid.decrease, 0.7);
  EXPECT_EQ(s.flow_cc, (std::vector<std::string>{"rss", "reno"}));
  EXPECT_EQ(s.run.measure_start, 2_s);
  EXPECT_EQ(s.sweep.mode, SweepSpec::Mode::kZip);
}

/// The SpecError a one-flow spec raises with `flow_fields` spliced into
/// its flow object (nullopt when it parses).
std::optional<SpecError> flow_spec_error(const std::string& flow_fields) {
  return spec_error_full([&] {
    (void)parse_scenario_spec(R"({"nodes": ["a", "b"], "links": [{"a": "a", "b": "b"}],
                                  "flows": [{"src": "a", "dst": "b", )" +
                              flow_fields + "}]}");
  });
}

TEST(ScenarioSpecTest, IntegerBeyondItsTypeIsABadValueNotAWrap) {
  // 4294967300 = 2^32 + 4 once wrapped to k = 4.
  const auto err = flow_spec_error(R"("sender": {"rtt": {"k": 4294967300}})");
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code(), Code::kBadValue);
  EXPECT_EQ(err->field(), "flows[0].sender.rtt.k");
}

TEST(ScenarioSpecTest, AckEveryBeyondIntIsABadValueNotAWrap) {
  // 4294967297 = 2^32 + 1 once wrapped to ack_every = 1.
  const auto err = flow_spec_error(R"("receiver": {"ack_every": 4294967297})");
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code(), Code::kBadValue);
  EXPECT_EQ(err->field(), "flows[0].receiver.ack_every");
}

TEST(ScenarioSpecTest, ZeroAckEveryIsRejectedAtParse) {
  // TcpReceiver's constructor rejects it; the spec must not validate it.
  const auto err = flow_spec_error(R"("receiver": {"ack_every": 0})");
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code(), Code::kBadValue);
  EXPECT_EQ(err->field(), "flows[0].receiver.ack_every");
}

TEST(ScenarioSpecTest, ZeroMssIsRejectedAtParse) {
  // TcpSender's constructor rejects it; the spec must not validate it.
  const auto err = flow_spec_error(R"("sender": {"mss": 0})");
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code(), Code::kBadValue);
  EXPECT_EQ(err->field(), "flows[0].sender.mss");
}

TEST(ScenarioSpecTest, ZeroQueueAndFluidPacketSizesAreRejectedAtParse) {
  // The queue and FluidSource constructors reject both; so must the spec.
  const auto ifq = spec_error_full([] {
    (void)parse_scenario_spec(
        R"({"nodes": ["a", "b"], "links": [{"a": "a", "b": "b", "b_dev": {"ifq_packets": 0}}]})");
  });
  ASSERT_TRUE(ifq.has_value());
  EXPECT_EQ(ifq->code(), Code::kBadValue);
  EXPECT_EQ(ifq->field(), "links[0].b_dev.ifq_packets");
  const auto fluid = flow_spec_error(R"("model": "fluid", "fluid": {"packet_bytes": 0})");
  ASSERT_TRUE(fluid.has_value());
  EXPECT_EQ(fluid->code(), Code::kBadValue);
  EXPECT_EQ(fluid->field(), "flows[0].fluid.packet_bytes");
}

/// The SpecError a one-link spec raises with `dev_fields` spliced into its
/// a_dev object (nullopt when it parses).
std::optional<SpecError> device_spec_error(const std::string& dev_fields) {
  return spec_error_full([&] {
    (void)parse_scenario_spec(R"({"nodes": ["a", "b"],
                                  "links": [{"a": "a", "b": "b", "a_dev": {)" +
                              dev_fields + "}}]}");
  });
}

void expect_bad_value(const std::optional<SpecError>& err, const std::string& field) {
  ASSERT_TRUE(err.has_value()) << field << " was accepted";
  EXPECT_EQ(err->code(), Code::kBadValue) << field;
  EXPECT_EQ(err->field(), field);
}

// FluidSource, CodelQueue and RedQueue reject these in their constructors,
// so a spec that validates would fail only at run time; parse rejects them.

TEST(ScenarioSpecTest, ZeroFluidStrideIsRejectedAtParse) {
  expect_bad_value(flow_spec_error(R"("model": "fluid", "fluid": {"stride": "0s"})"),
                   "flows[0].fluid.stride");
}

TEST(ScenarioSpecTest, ZeroCodelTargetIsRejectedAtParse) {
  expect_bad_value(device_spec_error(R"("qdisc": "codel", "codel": {"target": "0s"})"),
                   "links[0].a_dev.codel.target");
}

TEST(ScenarioSpecTest, ZeroCodelIntervalIsRejectedAtParse) {
  expect_bad_value(device_spec_error(R"("qdisc": "codel", "codel": {"interval": "0ms"})"),
                   "links[0].a_dev.codel.interval");
}

TEST(ScenarioSpecTest, RedMinThresholdNotBelowMaxIsRejectedAtParse) {
  expect_bad_value(device_spec_error(R"("qdisc": "red",
                                        "red": {"min_threshold": 50, "max_threshold": 20})"),
                   "links[0].a_dev.red.min_threshold");
  expect_bad_value(device_spec_error(R"("qdisc": "red",
                                        "red": {"min_threshold": 20, "max_threshold": 20})"),
                   "links[0].a_dev.red.min_threshold");
  // A max below the default min conflicts with a threshold the file never set.
  expect_bad_value(device_spec_error(R"("qdisc": "red", "red": {"max_threshold": 10})"),
                   "links[0].a_dev.red.max_threshold");
}

TEST(ScenarioSpecTest, RedQueueWeightOutsideUnitIntervalIsRejectedAtParse) {
  expect_bad_value(device_spec_error(R"("qdisc": "red", "red": {"queue_weight": 0})"),
                   "links[0].a_dev.red.queue_weight");
  expect_bad_value(device_spec_error(R"("qdisc": "red", "red": {"queue_weight": 1.5})"),
                   "links[0].a_dev.red.queue_weight");
  EXPECT_FALSE(device_spec_error(R"("qdisc": "red", "red": {"queue_weight": 1})").has_value());
}

TEST(ScenarioSpecTest, DoublesKeepEveryDigitThroughARoundTrip) {
  // Ten significant digits would emit 0.123456789, a different double.
  const ScenarioSpec s = parse_scenario_spec(R"({"nodes": ["a", "b"],
    "links": [{"a": "a", "b": "b"}],
    "flows": [{"src": "a", "dst": "b", "sender": {"rtt": {"alpha": 0.1234567890123}}}]})");
  ASSERT_EQ(s.topology.flows[0].sender.rtt.alpha, 0.1234567890123);
  const std::string once = serialize_scenario_spec(s);
  const ScenarioSpec again = parse_scenario_spec(once);
  EXPECT_EQ(again.topology.flows[0].sender.rtt.alpha, 0.1234567890123);
  EXPECT_EQ(serialize_scenario_spec(again), once);
  // Values that ten digits already carry keep their short form.
  EXPECT_EQ(json_serialize(JsonValue::make_number(0.002)), "0.002\n");
}

// --- sweep ----------------------------------------------------------------

constexpr const char* kSweepBase = R"({
  "nodes": ["a", "b"],
  "links": [{"a": "a", "b": "b", "a_dev": {"ifq_packets": 100}}],
  "flows": [{"src": "a", "dst": "b"}],
  "sweep": %s
})";

[[nodiscard]] std::string with_sweep(const std::string& sweep_json) {
  char buf[2048];
  std::snprintf(buf, sizeof buf, kSweepBase, sweep_json.c_str());
  return buf;
}

TEST(SweepTest, GridExpandsAsCartesianProductLastAxisFastest) {
  const auto points = expand_scenario_spec(with_sweep(R"({
    "axes": [
      {"field": "links[0].a_dev.ifq_packets", "values": [10, 20]},
      {"field": "seed", "values": [1, 2, 3]}
    ]
  })"));
  ASSERT_EQ(points.size(), 6u);
  // First axis slowest: (10,1) (10,2) (10,3) (20,1) (20,2) (20,3).
  EXPECT_EQ(points[0].spec.topology.links[0].a_dev.ifq_packets, 10u);
  EXPECT_EQ(points[0].spec.topology.seed, 1u);
  EXPECT_EQ(points[2].spec.topology.seed, 3u);
  EXPECT_EQ(points[3].spec.topology.links[0].a_dev.ifq_packets, 20u);
  EXPECT_EQ(points[3].spec.topology.seed, 1u);
  // Assignments mirror the substitutions, in axis order.
  ASSERT_EQ(points[5].assignment.size(), 2u);
  EXPECT_EQ(points[5].assignment[0].first, "links[0].a_dev.ifq_packets");
  EXPECT_EQ(points[5].assignment[0].second, "20");
  EXPECT_EQ(points[5].assignment[1].second, "3");
}

TEST(SweepTest, ZipAdvancesAxesTogether) {
  const auto points = expand_scenario_spec(with_sweep(R"({
    "mode": "zip",
    "axes": [
      {"field": "links[0].a_dev.ifq_packets", "values": [10, 20]},
      {"field": "seed", "values": [7, 8]}
    ]
  })"));
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].spec.topology.links[0].a_dev.ifq_packets, 10u);
  EXPECT_EQ(points[0].spec.topology.seed, 7u);
  EXPECT_EQ(points[1].spec.topology.links[0].a_dev.ifq_packets, 20u);
  EXPECT_EQ(points[1].spec.topology.seed, 8u);
}

TEST(SweepTest, NoSweepYieldsOnePointWithEmptyAssignment) {
  const auto points = expand_scenario_spec(kMinimalSpec);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_TRUE(points[0].assignment.empty());
}

TEST(SweepTest, EmptyAxisIsATypedError) {
  EXPECT_EQ(spec_error_of([] {
              (void)expand_scenario_spec(with_sweep(R"({
                "axes": [{"field": "seed", "values": []}]
              })"));
            }),
            Code::kBadSweep);
}

TEST(SweepTest, ZipLengthMismatchIsATypedError) {
  EXPECT_EQ(spec_error_of([] {
              (void)expand_scenario_spec(with_sweep(R"({
                "mode": "zip",
                "axes": [
                  {"field": "seed", "values": [1, 2]},
                  {"field": "links[0].a_dev.ifq_packets", "values": [10, 20, 30]}
                ]
              })"));
            }),
            Code::kBadSweep);
}

TEST(SweepTest, UnresolvablePathsAreTypedErrors) {
  EXPECT_EQ(spec_error_of([] {
              (void)expand_scenario_spec(with_sweep(R"({
                "axes": [{"field": "links[5].delay", "values": ["1ms"]}]
              })"));
            }),
            Code::kBadSweep);
  EXPECT_EQ(spec_error_of([] {
              (void)expand_scenario_spec(with_sweep(R"({
                "axes": [{"field": "phantom.knob", "values": [1]}]
              })"));
            }),
            Code::kBadSweep);
  EXPECT_EQ(spec_error_of([] {
              (void)expand_scenario_spec(with_sweep(R"({
                "axes": [{"field": "links[0]..x", "values": [1]}]
              })"));
            }),
            Code::kBadSweep);
}

TEST(SweepTest, AxisMayCreateAFieldTheBaseLeavesDefault) {
  // "name" is absent from the base document; the final path segment may be
  // created so fields the base leaves at their default can be swept too.
  const auto points = expand_scenario_spec(with_sweep(R"({
    "axes": [{"field": "name", "values": ["point-a", "point-b"]}]
  })"));
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].spec.name, "point-a");
  EXPECT_EQ(points[1].spec.name, "point-b");
}

TEST(SweepTest, SweptValuesPassNormalValidation) {
  // A bad unit inside a sweep value fails exactly like a hand-written one.
  EXPECT_EQ(spec_error_of([] {
              (void)expand_scenario_spec(with_sweep(R"({
                "axes": [{"field": "links[0].delay", "values": ["10parsecs"]}]
              })"));
            }),
            Code::kBadValue);
}

TEST(SweepTest, PointCountsAndModeParse) {
  const ScenarioSpec grid = parse_scenario_spec(with_sweep(R"({
    "axes": [
      {"field": "seed", "values": [1, 2]},
      {"field": "links[0].a_dev.ifq_packets", "values": [10, 20, 30]}
    ]
  })"));
  EXPECT_EQ(grid.sweep.mode, SweepSpec::Mode::kGrid);
  EXPECT_EQ(grid.sweep.point_count(), 6u);

  const ScenarioSpec zip = parse_scenario_spec(with_sweep(R"({
    "mode": "zip",
    "axes": [
      {"field": "seed", "values": [1, 2]},
      {"field": "links[0].a_dev.ifq_packets", "values": [10, 20]}
    ]
  })"));
  EXPECT_EQ(zip.sweep.mode, SweepSpec::Mode::kZip);
  EXPECT_EQ(zip.sweep.point_count(), 2u);

  EXPECT_EQ(spec_error_of([] {
              (void)parse_scenario_spec(with_sweep(R"({"mode": "spiral", "axes": []})"));
            }),
            Code::kBadValue);
}

}  // namespace
}  // namespace rss::scenario::spec
