#include "scenario/builder.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "net/cross_link.hpp"

namespace rss::scenario {

namespace {

constexpr std::uint64_t edge_key(std::size_t a, std::size_t b) {
  return (static_cast<std::uint64_t>(a) << 32) | static_cast<std::uint64_t>(b);
}

/// One hop of a flow's shortest-path route: the egress device (node +
/// device index), the neighbor it leads to, and the spec link it rides.
struct RouteHop {
  std::size_t node;
  std::size_t device;
  std::size_t next;
  std::size_t link;
};

/// Walk src -> dst through the forwarding tables. `link_of_edge` maps
/// edge_key(a, b) to the spec link index for every directly linked pair.
[[nodiscard]] std::vector<RouteHop> walk_route(
    const RouteTable& routes, const std::map<std::uint64_t, std::size_t>& link_of_edge,
    std::size_t src, std::size_t dst) {
  std::vector<RouteHop> hops;
  std::size_t n = src;
  while (n != dst) {
    const std::size_t dev = routes.egress(n, dst);
    std::size_t next = RouteTable::kUnreachable;
    for (const auto& [neighbor, device] : routes.adjacency[n]) {
      if (device == dev) {
        next = neighbor;
        break;
      }
    }
    if (next == RouteTable::kUnreachable)
      throw std::logic_error("walk_route: egress device without an adjacency entry");
    hops.push_back({n, dev, next, link_of_edge.at(edge_key(n, next))});
    n = next;
  }
  return hops;
}

/// Line rate of the egress device a hop serializes through.
[[nodiscard]] net::DataRate hop_rate(const TopologySpec& spec, const RouteHop& hop) {
  const LinkSpec& link = spec.links[hop.link];
  return *node_index(spec, link.a) == hop.node ? link.a_dev.rate : link.b_dev.rate;
}

/// `rng` is the stream RED queues fork from, in link-device order. For a
/// single-partition build it is the simulation's master RNG (the historical
/// behavior, byte-for-byte); a partitioned build forks from a dedicated
/// Rng(seed) instead, which yields the *same* fork sequence — the master
/// RNG has had no draws at wiring time — while leaving each partition's own
/// RNG untouched.
[[nodiscard]] std::unique_ptr<net::PacketQueue> make_queue(const DeviceSpec& dev,
                                                           sim::Rng& rng,
                                                           const sim::Simulation& sim) {
  std::unique_ptr<net::PacketQueue> queue;
  if (dev.qdisc == QueueDiscipline::kRed) {
    net::RedQueue::Options red = dev.red;
    red.capacity_packets = dev.ifq_packets;
    queue = std::make_unique<net::RedQueue>(red, rng.fork());
  } else if (dev.qdisc == QueueDiscipline::kCodel) {
    net::CodelQueue::Options codel = dev.codel;
    codel.capacity_packets = dev.ifq_packets;
    queue = std::make_unique<net::CodelQueue>(codel, sim);
  } else {
    queue = std::make_unique<net::DropTailQueue>(dev.ifq_packets);
  }
  queue->set_ecn_step_threshold(dev.ecn_threshold);
  return queue;
}

}  // namespace

// --- ScenarioBuilder ------------------------------------------------------

ScenarioBuilder& ScenarioBuilder::node(std::string name) {
  spec_.nodes.push_back(std::move(name));
  return *this;
}

ScenarioBuilder& ScenarioBuilder::link(LinkSpec link) {
  spec_.links.push_back(std::move(link));
  return *this;
}

ScenarioBuilder& ScenarioBuilder::duplex_link(std::string a, std::string b,
                                              net::DataRate rate, sim::Time delay,
                                              std::size_t ifq_packets) {
  LinkSpec l;
  l.a = std::move(a);
  l.b = std::move(b);
  l.delay = delay;
  l.a_dev.rate = rate;
  l.a_dev.ifq_packets = ifq_packets;
  l.b_dev.rate = rate;
  l.b_dev.ifq_packets = ifq_packets;
  spec_.links.push_back(std::move(l));
  return *this;
}

ScenarioBuilder& ScenarioBuilder::flow(FlowSpec flow) {
  spec_.flows.push_back(std::move(flow));
  return *this;
}

ScenarioBuilder& ScenarioBuilder::seed(std::uint64_t seed) {
  spec_.seed = seed;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::execution(ExecutionPolicy policy) {
  spec_.execution = policy;
  return *this;
}

std::unique_ptr<Scenario> ScenarioBuilder::build(const FlowCcFactory& cc_factory) const {
  using Code = TopologyError::Code;
  if (!cc_factory)
    throw TopologyError(Code::kNullCcFactory,
                        "ScenarioBuilder: null congestion-control factory");
  validate_topology(spec_);
  RouteTable routes = compute_routes(spec_);

  // Routability is a spec property, so reject before wiring anything.
  for (const auto& flow : spec_.flows) {
    const std::size_t src = *node_index(spec_, flow.src);
    const std::size_t dst = *node_index(spec_, flow.dst);
    if (!routes.reachable(src, dst))
      throw TopologyError(Code::kUnroutableFlow,
                          "topology: no path from '" + flow.src + "' to '" + flow.dst + "'");
  }

  // Fluid pre-pass: walk every flow's route once. Fluid routes are pinned
  // into one partition (their integration must stay local) and their
  // bottleneck contention decides which devices get a FluidQueueCoupling —
  // a device is coupled iff foreground packets cross it too, or the fluid
  // aggregates alone can oversubscribe its line.
  std::map<std::uint64_t, std::size_t> link_of_edge;
  for (std::size_t l = 0; l < spec_.links.size(); ++l) {
    const std::size_t a = *node_index(spec_, spec_.links[l].a);
    const std::size_t b = *node_index(spec_, spec_.links[l].b);
    link_of_edge.emplace(edge_key(a, b), l);
    link_of_edge.emplace(edge_key(b, a), l);
  }
  std::vector<std::vector<RouteHop>> fluid_routes(spec_.flows.size());
  std::vector<net::FluidOptions> fluid_opts(spec_.flows.size());
  std::set<std::uint64_t> packet_devices;     // edge_key(node, device index)
  std::map<std::uint64_t, double> fluid_peak_sum;  // same key -> Σ capped peaks (bps)
  std::set<std::size_t> pinned_links;
  for (std::size_t f = 0; f < spec_.flows.size(); ++f) {
    const auto& flow = spec_.flows[f];
    const std::size_t src = *node_index(spec_, flow.src);
    const std::size_t dst = *node_index(spec_, flow.dst);
    if (flow.model != TrafficModel::kFluid) {
      // Foreground packets contend on the data path and the ACK path.
      for (const RouteHop& hop : walk_route(routes, link_of_edge, src, dst))
        packet_devices.insert(edge_key(hop.node, hop.device));
      for (const RouteHop& hop : walk_route(routes, link_of_edge, dst, src))
        packet_devices.insert(edge_key(hop.node, hop.device));
      continue;
    }
    fluid_routes[f] = walk_route(routes, link_of_edge, src, dst);
    net::FluidOptions opt = flow.fluid;
    net::DataRate min_rate = net::DataRate::bps(0);
    sim::Time one_way = sim::Time::zero();
    for (const RouteHop& hop : fluid_routes[f]) {
      pinned_links.insert(hop.link);
      const net::DataRate rate = hop_rate(spec_, hop);
      if (min_rate.bits_per_second() == 0 || rate < min_rate) min_rate = rate;
      one_way = one_way + spec_.links[hop.link].delay;
    }
    // Cap the peak at the route's narrowest line and derive an unset RTT
    // from the route's propagation delay.
    if (opt.peak_rate.bits_per_second() == 0 || min_rate < opt.peak_rate)
      opt.peak_rate = min_rate;
    if (opt.rtt == sim::Time::zero()) opt.rtt = one_way + one_way;
    if (opt.initial_rate > opt.peak_rate) opt.initial_rate = opt.peak_rate;
    fluid_opts[f] = opt;
    for (const RouteHop& hop : fluid_routes[f])
      fluid_peak_sum[edge_key(hop.node, hop.device)] +=
          static_cast<double>(opt.peak_rate.bits_per_second());
  }

  // Resolve the execution policy; the process-wide defaults (CLI
  // --partitions) are the lowest-precedence layer.
  ExecutionPolicy policy = spec_.execution;
  const ExecutionDefaults& process_defaults = execution_defaults();
  if (policy.partitions == 1 && process_defaults.partitions > 1)
    policy.partitions = process_defaults.partitions;
  if (policy.partitions == 0)
    throw TopologyError(Code::kBadExecution, "execution: partitions must be >= 1");

  // Partition the node graph. Requests beyond the node count are clamped;
  // a disconnected graph can yield more partitions than requested (extra
  // components parallelize for free).
  const std::size_t requested =
      std::min(policy.partitions, std::max<std::size_t>(spec_.nodes.size(), 1));
  std::vector<std::uint32_t> assignment;
  sim::Time lookahead = sim::Time::infinity();
  if (requested > 1) {
    std::vector<sim::PartitionEdge> edges;
    edges.reserve(spec_.links.size());
    for (const auto& link : spec_.links)
      edges.push_back({*node_index(spec_, link.a), *node_index(spec_, link.b), link.delay});
    // Fluid routes are mandatory intra-partition: their links are pinned
    // (united before any other merge), so fluid integration never crosses
    // a HandoffChannel and the lookahead window is untouched by fluid.
    const std::vector<std::size_t> pinned(pinned_links.begin(), pinned_links.end());
    assignment = policy.strategy == PartitionStrategy::kBlock
                     ? sim::partition_blocks(spec_.nodes.size(), requested)
                     : sim::partition_by_latency(spec_.nodes.size(), edges, requested, pinned);
    for (const std::size_t l : pinned_links) {
      if (assignment[edges[l].a] != assignment[edges[l].b])
        throw TopologyError(Code::kFluidRouteCut,
                            "execution: link '" + spec_.links[l].a + "' -- '" +
                                spec_.links[l].b +
                                "' carries a fluid flow but the partitioning splits it; "
                                "fluid routes must stay within one partition (use the "
                                "latency strategy, which pins them)");
    }
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (assignment[edges[e].a] != assignment[edges[e].b] &&
          edges[e].latency < sim::Time::nanoseconds(1))
        throw TopologyError(Code::kZeroLatencyCut,
                            "execution: link '" + spec_.links[e].a + "' -- '" +
                                spec_.links[e].b +
                                "' crosses partitions but has zero latency; conservative "
                                "lookahead needs every cut link to be >= 1ns");
    }
    lookahead = sim::min_cut_latency(edges, assignment);
  } else {
    assignment.assign(spec_.nodes.size(), 0);
  }
  const std::size_t parts = std::max<std::size_t>(sim::partition_count(assignment), 1);

  // make_unique needs a public constructor; the builder is a friend, so
  // construct directly.
  std::unique_ptr<Scenario> scenario{new Scenario(spec_, std::move(routes))};
  const TopologySpec& spec = scenario->spec_;
  scenario->node_partition_ = assignment;
  scenario->lookahead_ = lookahead;
  for (std::size_t p = 0; p < parts; ++p) {
    scenario->sims_.push_back(
        std::make_unique<sim::Simulation>(spec.seed + p));
    // Origins label nodes (spec index + 1) plus the shared stream 0;
    // pre-sizing keeps ranked scheduling allocation-free on the hot path.
    scenario->sims_.back()->scheduler().reserve_origins(spec.nodes.size() + 1);
  }
  if (parts > 1) {
    std::vector<sim::Simulation*> sim_ptrs;
    sim_ptrs.reserve(parts);
    for (const auto& s : scenario->sims_) sim_ptrs.push_back(s.get());
    // Resolve the thread count here rather than in the engine: a zero
    // budget must fall through the process-wide defaults (--jobs) before
    // hitting hardware_concurrency, and the sim layer knows neither.
    scenario->engine_ = std::make_unique<sim::PartitionedEngine>(
        std::move(sim_ptrs),
        sim::PartitionedEngine::Options{.lookahead = lookahead,
                                        .threads = policy.resolve_threads(parts)});
  }

  const auto sim_of_node = [&](std::size_t n) -> sim::Simulation& {
    return *scenario->sims_[assignment[n]];
  };
  // RED fork stream: the partition-0 master RNG for single-partition
  // builds (historical behavior), a detached same-seed stream otherwise
  // (identical fork sequence — see make_queue).
  sim::Rng detached_master{spec.seed};
  sim::Rng& queue_rng = parts > 1 ? detached_master : scenario->sims_.front()->rng();

  // Nodes: ids are 1-based spec indices.
  for (std::size_t i = 0; i < spec.nodes.size(); ++i) {
    scenario->nodes_.push_back(std::make_unique<net::Node>(
        sim_of_node(i), static_cast<std::uint32_t>(i + 1), spec.nodes[i]));
    scenario->node_index_.emplace(spec.nodes[i], i);
  }

  // Links: one device per endpoint, created in link declaration order so
  // device indices match the RouteTable's adjacency. A link whose
  // endpoints landed in different partitions becomes a CrossPartitionLink
  // staging through the engine; channel ids follow link order, keeping the
  // deterministic merge a pure function of the spec.
  for (const auto& link : spec.links) {
    const std::size_t a = scenario->index_of(link.a);
    const std::size_t b = scenario->index_of(link.b);
    const std::string a_name =
        link.a_dev.name.empty() ? link.a + "->" + link.b : link.a_dev.name;
    const std::string b_name =
        link.b_dev.name.empty() ? link.b + "->" + link.a : link.b_dev.name;
    net::NetDevice& a_dev = scenario->nodes_[a]->add_device(
        link.a_dev.rate, make_queue(link.a_dev, queue_rng, sim_of_node(a)), a_name);
    net::NetDevice& b_dev = scenario->nodes_[b]->add_device(
        link.b_dev.rate, make_queue(link.b_dev, queue_rng, sim_of_node(b)), b_name);
    // Tag devices with their node's global index so same-timestamp link
    // deliveries order by (node, per-node rank) — intrinsic to the spec,
    // identical whether the run is sequential or partitioned. Tagged
    // unconditionally: the 1-partition run is the parity baseline.
    a_dev.set_event_origin(static_cast<std::uint32_t>(a) + 1);
    b_dev.set_event_origin(static_cast<std::uint32_t>(b) + 1);
    const std::uint32_t pa = assignment[a];
    const std::uint32_t pb = assignment[b];
    if (pa == pb) {
      scenario->links_.push_back(
          std::make_unique<net::PointToPointLink>(sim_of_node(a), link.delay));
    } else {
      sim::HandoffChannel& fwd = scenario->engine_->add_channel(pa, pb);
      sim::HandoffChannel& rev = scenario->engine_->add_channel(pb, pa);
      scenario->links_.push_back(std::make_unique<net::CrossPartitionLink>(
          sim_of_node(a), sim_of_node(b), link.delay, fwd, rev));
    }
    scenario->links_.back()->attach(a_dev, b_dev);
    scenario->device_by_edge_.emplace(edge_key(a, b), &a_dev);
    scenario->device_by_edge_.emplace(edge_key(b, a), &b_dev);
  }

  // Forwarding tables from the shortest-path routes.
  for (std::size_t n = 0; n < spec.nodes.size(); ++n) {
    for (std::size_t d = 0; d < spec.nodes.size(); ++d) {
      const std::size_t device = scenario->routes_.next_device[n][d];
      if (n == d || device == RouteTable::kUnreachable) continue;
      scenario->nodes_[n]->set_route(static_cast<std::uint32_t>(d + 1), device);
    }
  }

  // Flows: receiver first, then sender (the order the hand-wired
  // scenarios used), then the optional Web100 agent. Each endpoint object
  // is wired to its own node's partition.
  // Per-partition fluid integration stride: the finest stride any of the
  // partition's aggregates asked for (one driver ticks them all).
  std::vector<sim::Time> driver_stride(parts, sim::Time::zero());
  std::vector<net::FluidDriver*> driver_of(parts, nullptr);
  std::map<net::NetDevice*, net::FluidQueueCoupling*> coupling_of;
  for (std::size_t f = 0; f < spec.flows.size(); ++f) {
    if (spec.flows[f].model != TrafficModel::kFluid) continue;
    const std::uint32_t p = assignment[scenario->index_of(spec.flows[f].src)];
    const sim::Time stride = fluid_opts[f].stride;
    if (driver_stride[p] == sim::Time::zero() || stride < driver_stride[p])
      driver_stride[p] = stride;
  }

  for (std::size_t f = 0; f < spec.flows.size(); ++f) {
    const auto& flow = spec.flows[f];
    const std::size_t src = scenario->index_of(flow.src);
    const std::size_t dst = scenario->index_of(flow.dst);
    const std::uint32_t flow_id =
        flow.flow_id != 0 ? flow.flow_id : static_cast<std::uint32_t>(f + 1);

    if (flow.model == TrafficModel::kFluid) {
      Scenario::FlowRuntime runtime;
      runtime.src_sim = &sim_of_node(src);
      runtime.fluid_source = std::make_unique<net::FluidSource>(
          fluid_opts[f], flow.src + "~>" + flow.dst);
      runtime.fluid_sink = std::make_unique<net::FluidSink>(*runtime.fluid_source);

      const std::uint32_t p = assignment[src];
      if (driver_of[p] == nullptr) {
        scenario->fluid_drivers_.push_back(
            std::make_unique<net::FluidDriver>(sim_of_node(src), driver_stride[p]));
        driver_of[p] = scenario->fluid_drivers_.back().get();
      }
      driver_of[p]->add_source(runtime.fluid_source.get());

      // Couple only where contention is real: devices foreground packets
      // also cross, or devices the fluid aggregates alone can saturate.
      // Uncoupled hops cost nothing per stride — that sparsity is where
      // the wall-time win comes from.
      for (const RouteHop& hop : fluid_routes[f]) {
        net::NetDevice& dev = scenario->nodes_[hop.node]->device(hop.device);
        const std::uint64_t key = edge_key(hop.node, hop.device);
        const double line_bps = static_cast<double>(dev.rate().bits_per_second());
        const bool shared_with_packets = packet_devices.count(key) != 0;
        const bool oversubscribed = fluid_peak_sum[key] > line_bps;
        if (!shared_with_packets && !oversubscribed) continue;
        net::FluidQueueCoupling*& coupling = coupling_of[&dev];
        if (coupling == nullptr) {
          scenario->fluid_couplings_.push_back(
              std::make_unique<net::FluidQueueCoupling>(dev));
          coupling = scenario->fluid_couplings_.back().get();
          driver_of[p]->add_coupling(coupling);
        }
        coupling->add_source(runtime.fluid_source.get());
      }

      scenario->flows_.push_back(std::move(runtime));
      continue;
    }

    Scenario::FlowRuntime runtime;
    runtime.src_sim = &sim_of_node(src);

    tcp::TcpReceiver::Options rx_opt = flow.receiver;
    rx_opt.flow_id = flow_id;
    rx_opt.peer_node = static_cast<std::uint32_t>(src + 1);
    if (flow.ecn) rx_opt.ecn = true;
    runtime.receiver = std::make_unique<tcp::TcpReceiver>(sim_of_node(dst),
                                                          *scenario->nodes_[dst], rx_opt);

    tcp::TcpSender::Options tx_opt = flow.sender;
    tx_opt.flow_id = flow_id;
    tx_opt.dst_node = static_cast<std::uint32_t>(dst + 1);
    if (flow.ecn) tx_opt.ecn = true;
    net::NetDevice& egress =
        scenario->nodes_[src]->device(scenario->routes_.egress(src, dst));
    runtime.sender = std::make_unique<tcp::TcpSender>(
        sim_of_node(src), *scenario->nodes_[src], egress, cc_factory(f), tx_opt);

    if (flow.web100) {
      runtime.agent = std::make_unique<web100::PollingAgent>(
          sim_of_node(src),
          [sender = runtime.sender.get()]() -> const web100::Mib& { return sender->mib(); },
          flow.web100_poll_period);
      runtime.agent->start();
    }

    scenario->flows_.push_back(std::move(runtime));
  }

  // Arm the fluid drivers once everything is registered: each partition's
  // tick is a single self-rescheduling event regardless of how many
  // aggregates it integrates.
  for (const auto& driver : scenario->fluid_drivers_) driver->start();

  // Spec-declared starts, scheduled after every flow is wired so flow
  // construction order never interleaves with start events.
  for (std::size_t f = 0; f < spec.flows.size(); ++f) {
    if (spec.flows[f].start) scenario->start_flow(f, *spec.flows[f].start);
  }

  return scenario;
}

// --- Scenario -------------------------------------------------------------

Scenario::Scenario(TopologySpec spec, RouteTable routes)
    : spec_{std::move(spec)}, routes_{std::move(routes)} {}

std::size_t Scenario::index_of(std::string_view name) const {
  const auto it = node_index_.find(std::string{name});
  if (it == node_index_.end())
    throw std::out_of_range("Scenario: unknown node '" + std::string{name} + "'");
  return it->second;
}

std::uint32_t Scenario::partition_of(std::string_view name) const {
  return node_partition_.at(index_of(name));
}

std::uint64_t Scenario::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& sim : sims_) total += sim->scheduler().events_executed();
  return total;
}

tcp::TcpSender* Scenario::checked_sender(std::size_t i) {
  FlowRuntime& flow = flows_.at(i);
  if (!flow.sender)
    throw std::logic_error("Scenario: flow " + std::to_string(i) +
                           " is fluid and has no TcpSender; use fluid_source()/fluid_sink()");
  return flow.sender.get();
}

net::FluidSource& Scenario::fluid_source(std::size_t i) {
  FlowRuntime& flow = flows_.at(i);
  if (!flow.fluid_source)
    throw std::logic_error("Scenario: flow " + std::to_string(i) + " is packet-level");
  return *flow.fluid_source;
}

const net::FluidSink& Scenario::fluid_sink(std::size_t i) const {
  const FlowRuntime& flow = flows_.at(i);
  if (!flow.fluid_sink)
    throw std::logic_error("Scenario: flow " + std::to_string(i) + " is packet-level");
  return *flow.fluid_sink;
}

void Scenario::start_flow(std::size_t i, sim::Time at) {
  FlowRuntime& flow = flows_.at(i);
  if (flow.fluid_source) {
    net::FluidSource* source = flow.fluid_source.get();
    flow.src_sim->at(at, [source] { source->start(); });
    return;
  }
  tcp::TcpSender* sender = flow.sender.get();
  flow.src_sim->at(at, [sender] { sender->set_unlimited(true); });
}

std::vector<double> Scenario::goodputs_mbps(sim::Time t0, sim::Time t1) const {
  std::vector<double> out;
  out.reserve(flows_.size());
  for (const auto& flow : flows_) {
    out.push_back(flow.fluid_sink ? flow.fluid_sink->goodput_mbps(t0, t1)
                                  : flow.sender->goodput_mbps(t0, t1));
  }
  return out;
}

net::Node& Scenario::node(std::string_view name) { return *nodes_.at(index_of(name)); }

net::NetDevice& Scenario::device(std::string_view node, std::string_view peer) {
  const auto it = device_by_edge_.find(edge_key(index_of(node), index_of(peer)));
  if (it == device_by_edge_.end())
    throw std::out_of_range("Scenario: no direct link from '" + std::string{node} +
                            "' to '" + std::string{peer} + "'");
  return *it->second;
}

const net::NetDevice& Scenario::device(std::string_view node, std::string_view peer) const {
  return const_cast<Scenario*>(this)->device(node, peer);
}

}  // namespace rss::scenario
