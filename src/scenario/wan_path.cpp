#include "scenario/wan_path.hpp"

namespace rss::scenario {

TopologySpec WanPath::make_spec(const Config& config) {
  TopologySpec spec;
  spec.seed = config.seed;
  spec.execution = config.execution;
  spec.nodes = {"sender", "receiver"};

  LinkSpec wan;
  wan.a = "sender";
  wan.b = "receiver";
  wan.delay = config.path.one_way_delay;
  wan.a_dev.rate = config.path.nic_rate;
  wan.a_dev.ifq_packets = config.path.ifq_capacity_packets;
  wan.a_dev.name = "sender/nic";
  wan.b_dev.rate = config.path.wan_rate;
  wan.b_dev.ifq_packets = config.receiver_ifq_packets;
  wan.b_dev.name = "receiver/nic";
  spec.links.push_back(std::move(wan));

  FlowSpec flow;
  flow.src = "sender";
  flow.dst = "receiver";
  flow.flow_id = config.flow_id;
  flow.sender = config.sender;
  flow.sender.mss = config.path.mss;
  flow.receiver = config.receiver;
  flow.web100 = config.enable_web100;
  flow.web100_poll_period = config.web100_poll_period;
  spec.flows.push_back(std::move(flow));
  return spec;
}

WanPath::WanPath(Config config, const CcFactory& cc_factory)
    : cfg_{config},
      scenario_{ScenarioBuilder{make_spec(config)}.build(uniform_cc(cc_factory))} {}

void WanPath::run_bulk_transfer(sim::Time start, sim::Time until) {
  scenario_->start_flow(0, start);
  scenario_->run_until(until);
}

}  // namespace rss::scenario
