#include "scenario/presets.hpp"

#include <stdexcept>

namespace rss::scenario {

namespace {

[[nodiscard]] std::vector<sim::Time> resolve_hop_delays(const std::vector<sim::Time>& given,
                                                        std::size_t hops,
                                                        sim::Time fallback,
                                                        const char* preset) {
  if (given.empty()) return std::vector<sim::Time>(hops, fallback);
  if (given.size() != hops)
    throw std::invalid_argument(std::string{preset} +
                                ": hop_delays size must match the hop count");
  return given;
}

[[nodiscard]] std::string router_name(std::size_t index) {
  return "r" + std::to_string(index);
}

}  // namespace

// --- ParkingLot -----------------------------------------------------------

TopologySpec ParkingLot::make_spec(const Config& config) {
  if (config.hops == 0) throw std::invalid_argument("ParkingLot: need at least one hop");
  const auto hop_delays = resolve_hop_delays(config.hop_delays, config.hops,
                                             config.default_hop_delay, "ParkingLot");

  TopologySpec spec;
  spec.seed = config.seed;
  spec.execution = config.execution;

  for (std::size_t r = 0; r <= config.hops; ++r) spec.nodes.push_back(router_name(r));
  spec.nodes.push_back("src");
  spec.nodes.push_back("dst");
  for (std::size_t h = 0; h < config.hops; ++h) {
    for (std::size_t k = 0; k < config.cross_flows_per_hop; ++k) {
      const std::string suffix = std::to_string(h) + "_" + std::to_string(k);
      spec.nodes.push_back("xs" + suffix);
      spec.nodes.push_back("xd" + suffix);
    }
  }

  // The chain: hop h runs router h -> router h+1 at the bottleneck rate.
  for (std::size_t h = 0; h < config.hops; ++h) {
    LinkSpec hop;
    hop.a = router_name(h);
    hop.b = router_name(h + 1);
    hop.delay = hop_delays[h];
    hop.a_dev = {.rate = config.bottleneck_rate,
                 .ifq_packets = config.router_queue_packets,
                 .name = "hop" + std::to_string(h)};
    hop.b_dev = {config.bottleneck_rate, config.router_queue_packets};
    spec.links.push_back(std::move(hop));
  }

  const auto access_link = [&](const std::string& host, const std::string& router) {
    LinkSpec l;
    l.a = host;
    l.b = router;
    l.delay = config.access_delay;
    l.a_dev = {config.access_rate, config.sender_ifq_packets};
    l.b_dev = {config.access_rate, 1000};
    spec.links.push_back(std::move(l));
  };

  access_link("src", router_name(0));
  access_link("dst", router_name(config.hops));
  for (std::size_t h = 0; h < config.hops; ++h) {
    for (std::size_t k = 0; k < config.cross_flows_per_hop; ++k) {
      const std::string suffix = std::to_string(h) + "_" + std::to_string(k);
      access_link("xs" + suffix, router_name(h));
      access_link("xd" + suffix, router_name(h + 1));
    }
  }

  const auto add_flow = [&](const std::string& src, const std::string& dst, bool cross) {
    FlowSpec flow;
    flow.src = src;
    flow.dst = dst;
    if (cross && config.fluid_cross) {
      flow.model = TrafficModel::kFluid;
      flow.fluid = config.fluid_options;
    } else {
      flow.sender = config.sender;
      flow.sender.mss = config.mss;
      flow.receiver = config.receiver;
    }
    spec.flows.push_back(std::move(flow));
  };

  add_flow("src", "dst", false);  // flow 0: end-to-end across every hop
  for (std::size_t h = 0; h < config.hops; ++h) {
    for (std::size_t k = 0; k < config.cross_flows_per_hop; ++k) {
      const std::string suffix = std::to_string(h) + "_" + std::to_string(k);
      add_flow("xs" + suffix, "xd" + suffix, true);
    }
  }
  return spec;
}

ParkingLot::ParkingLot(Config config, const FlowCcFactory& cc_factory)
    : cfg_{std::move(config)} {
  if (!cc_factory)
    throw std::invalid_argument("ParkingLot: null congestion-control factory");
  scenario_ = ScenarioBuilder{make_spec(cfg_)}.build(cc_factory);
}

void ParkingLot::start_all(sim::Time start) {
  for (std::size_t i = 0; i < scenario_->flow_count(); ++i) scenario_->start_flow(i, start);
}

net::NetDevice& ParkingLot::bottleneck(std::size_t hop) {
  return scenario_->device(router_name(hop), router_name(hop + 1));
}

// --- MultiBottleneckChain -------------------------------------------------

TopologySpec MultiBottleneckChain::make_spec(const Config& config) {
  if (config.hop_rates.empty())
    throw std::invalid_argument("MultiBottleneckChain: need at least one hop rate");
  if (config.flows == 0)
    throw std::invalid_argument("MultiBottleneckChain: need at least one flow");
  const std::size_t hops = config.hop_rates.size();
  const auto hop_delays = resolve_hop_delays(config.hop_delays, hops,
                                             config.default_hop_delay,
                                             "MultiBottleneckChain");

  TopologySpec spec;
  spec.seed = config.seed;
  spec.execution = config.execution;

  for (std::size_t r = 0; r <= hops; ++r) spec.nodes.push_back(router_name(r));
  for (std::size_t i = 0; i < config.flows; ++i) {
    spec.nodes.push_back("s" + std::to_string(i));
    spec.nodes.push_back("d" + std::to_string(i));
  }

  for (std::size_t h = 0; h < hops; ++h) {
    LinkSpec hop;
    hop.a = router_name(h);
    hop.b = router_name(h + 1);
    hop.delay = hop_delays[h];
    hop.a_dev = {.rate = config.hop_rates[h],
                 .ifq_packets = config.router_queue_packets,
                 .name = "hop" + std::to_string(h)};
    hop.b_dev = {config.hop_rates[h], config.router_queue_packets};
    spec.links.push_back(std::move(hop));
  }

  // Flow i enters the chain at router (i mod hops) and exits at the far
  // end: staggered entry points give each flow a different hop count and
  // RTT while the chain tail stays shared.
  for (std::size_t i = 0; i < config.flows; ++i) {
    LinkSpec in;
    in.a = "s" + std::to_string(i);
    in.b = router_name(i % hops);
    in.delay = config.access_delay;
    in.a_dev = {config.access_rate, config.sender_ifq_packets};
    in.b_dev = {config.access_rate, 1000};
    spec.links.push_back(std::move(in));

    LinkSpec out;
    out.a = router_name(hops);
    out.b = "d" + std::to_string(i);
    out.delay = config.access_delay;
    out.a_dev = {config.access_rate, 1000};
    out.b_dev = {config.access_rate, 1000};
    spec.links.push_back(std::move(out));

    FlowSpec flow;
    flow.src = "s" + std::to_string(i);
    flow.dst = "d" + std::to_string(i);
    flow.sender = config.sender;
    flow.sender.mss = config.mss;
    flow.receiver = config.receiver;
    spec.flows.push_back(std::move(flow));
  }
  return spec;
}

MultiBottleneckChain::MultiBottleneckChain(Config config, const FlowCcFactory& cc_factory)
    : cfg_{std::move(config)} {
  if (!cc_factory)
    throw std::invalid_argument("MultiBottleneckChain: null congestion-control factory");
  scenario_ = ScenarioBuilder{make_spec(cfg_)}.build(cc_factory);
}

net::NetDevice& MultiBottleneckChain::bottleneck(std::size_t hop) {
  return scenario_->device(router_name(hop), router_name(hop + 1));
}

std::size_t MultiBottleneckChain::flow_hops(std::size_t i) const {
  return cfg_.hop_rates.size() - (i % cfg_.hop_rates.size());
}

// --- ScaleMesh ------------------------------------------------------------

TopologySpec ScaleMesh::make_spec(const Config& config) {
  if (config.segments == 0)
    throw std::invalid_argument("ScaleMesh: need at least one segment");
  if (config.flows_per_segment == 0)
    throw std::invalid_argument("ScaleMesh: need at least one flow per segment");
  if (config.segments > 1 && config.inter_delay < sim::Time::nanoseconds(1))
    throw std::invalid_argument("ScaleMesh: inter_delay must be >= 1ns (lookahead bound)");

  TopologySpec spec;
  spec.seed = config.seed;
  spec.execution = config.execution;

  const auto seg = [](const char* prefix, std::size_t i) {
    return std::string{prefix} + std::to_string(i);
  };

  for (std::size_t i = 0; i < config.segments; ++i) {
    spec.nodes.push_back(seg("hL", i));
    spec.nodes.push_back(seg("rL", i));
    spec.nodes.push_back(seg("rR", i));
    spec.nodes.push_back(seg("hR", i));
  }

  for (std::size_t i = 0; i < config.segments; ++i) {
    LinkSpec in;
    in.a = seg("hL", i);
    in.b = seg("rL", i);
    in.delay = config.access_delay;
    in.a_dev = {config.access_rate, config.sender_ifq_packets};
    in.b_dev = {config.access_rate, 1000};
    spec.links.push_back(std::move(in));

    LinkSpec bottleneck;
    bottleneck.a = seg("rL", i);
    bottleneck.b = seg("rR", i);
    bottleneck.delay = config.bottleneck_delay;
    bottleneck.a_dev = {.rate = config.bottleneck_rate,
                        .ifq_packets = config.router_queue_packets,
                        .name = "seg" + std::to_string(i) + "/bottleneck"};
    bottleneck.b_dev = {config.bottleneck_rate, config.router_queue_packets};
    spec.links.push_back(std::move(bottleneck));

    LinkSpec out;
    out.a = seg("rR", i);
    out.b = seg("hR", i);
    out.delay = config.access_delay;
    out.a_dev = {config.access_rate, 1000};
    out.b_dev = {config.access_rate, 1000};
    spec.links.push_back(std::move(out));

    // Trunk to the next segment: the largest delay in the topology, so
    // latency-guided partitioning cuts here and inter_delay becomes the
    // engine's lookahead window.
    if (i + 1 < config.segments) {
      LinkSpec trunk;
      trunk.a = seg("rR", i);
      trunk.b = seg("rL", i + 1);
      trunk.delay = config.inter_delay;
      trunk.a_dev = {.rate = config.trunk_rate,
                     .ifq_packets = config.router_queue_packets,
                     .name = "trunk" + std::to_string(i)};
      trunk.b_dev = {config.trunk_rate, config.router_queue_packets};
      spec.links.push_back(std::move(trunk));
    }
  }

  const auto add_flow = [&](const std::string& src, const std::string& dst, bool local) {
    FlowSpec flow;
    flow.src = src;
    flow.dst = dst;
    flow.start = config.start_all;
    if (local && config.fluid_local) {
      flow.model = TrafficModel::kFluid;
      flow.fluid = config.fluid_options;
    } else {
      flow.sender = config.sender;
      flow.sender.mss = config.mss;
      flow.receiver = config.receiver;
    }
    spec.flows.push_back(std::move(flow));
  };

  // Local flows first (segment-major), then cross flows (trunk-major) —
  // the index math in local_flow()/cross_flow() depends on this order.
  for (std::size_t i = 0; i < config.segments; ++i)
    for (std::size_t k = 0; k < config.flows_per_segment; ++k)
      add_flow(seg("hL", i), seg("hR", i), true);
  for (std::size_t i = 0; i + 1 < config.segments; ++i)
    for (std::size_t k = 0; k < config.cross_flows_per_segment; ++k)
      add_flow(seg("hL", i), seg("hR", i + 1), false);
  return spec;
}

ScaleMesh::ScaleMesh(Config config, const FlowCcFactory& cc_factory)
    : cfg_{std::move(config)} {
  if (!cc_factory)
    throw std::invalid_argument("ScaleMesh: null congestion-control factory");
  scenario_ = ScenarioBuilder{make_spec(cfg_)}.build(cc_factory);
}

net::NetDevice& ScaleMesh::bottleneck(std::size_t segment) {
  return scenario_->device("rL" + std::to_string(segment),
                           "rR" + std::to_string(segment));
}

}  // namespace rss::scenario
