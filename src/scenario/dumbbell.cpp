#include "scenario/dumbbell.hpp"

#include <stdexcept>
#include <string>

namespace rss::scenario {

TopologySpec Dumbbell::make_spec(const Config& config) {
  TopologySpec spec;
  spec.seed = config.seed;
  spec.execution = config.execution;

  spec.nodes = {"routerL", "routerR"};
  for (std::size_t i = 0; i < config.flows; ++i) {
    spec.nodes.push_back("sender" + std::to_string(i));
    spec.nodes.push_back("receiver" + std::to_string(i));
  }

  // Shared bottleneck L <-> R. The router queue is where network
  // congestion happens in this topology.
  LinkSpec bottleneck;
  bottleneck.a = "routerL";
  bottleneck.b = "routerR";
  bottleneck.delay = config.bottleneck_delay;
  bottleneck.a_dev = {.rate = config.bottleneck_rate,
                      .ifq_packets = config.router_queue_packets,
                      .name = "routerL/bottleneck"};
  bottleneck.b_dev = {.rate = config.bottleneck_rate,
                      .ifq_packets = config.router_queue_packets,
                      .name = "routerR/bottleneck"};
  spec.links.push_back(std::move(bottleneck));

  for (std::size_t i = 0; i < config.flows; ++i) {
    // Sender access: host NIC (finite IFQ: local stalls possible) <-> router L.
    LinkSpec access;
    access.a = "sender" + std::to_string(i);
    access.b = "routerL";
    access.delay = config.access_delay;
    access.a_dev = {config.access_rate, config.sender_ifq_packets};
    access.b_dev = {config.access_rate, 1000};
    spec.links.push_back(std::move(access));

    // Receiver access: router R <-> receiver NIC.
    LinkSpec egress;
    egress.a = "routerR";
    egress.b = "receiver" + std::to_string(i);
    egress.delay = config.access_delay;
    egress.a_dev = {config.access_rate, 1000};
    egress.b_dev = {config.access_rate, 1000};
    spec.links.push_back(std::move(egress));

    FlowSpec flow;
    flow.src = "sender" + std::to_string(i);
    flow.dst = "receiver" + std::to_string(i);
    flow.sender = config.sender;
    flow.sender.mss = config.mss;
    flow.receiver = config.receiver;
    spec.flows.push_back(std::move(flow));
  }
  return spec;
}

Dumbbell::Dumbbell(Config config, const PerFlowCcFactory& cc_factory) : cfg_{config} {
  if (cfg_.flows == 0) throw std::invalid_argument("Dumbbell: need at least one flow");
  if (!cc_factory) throw std::invalid_argument("Dumbbell: null congestion-control factory");
  scenario_ = ScenarioBuilder{make_spec(cfg_)}.build(cc_factory);
}

}  // namespace rss::scenario
