// rsslab — command-line experiment driver: run any congestion-control
// variant over a parameterized WAN path and report the Web100 view.
// The "I want to poke at it" front end a released system ships with.
//
// Usage:
//   rsslab [--variant NAME] [--rtt MS] [--ifq PKTS] [--rate MBPS]
//          [--duration S] [--loss P] [--jitter MS] [--cross MBPS]
//          [--seed N] [--csv]
//
//   --variant  tahoe | reno | vegas | limited | restricted | highspeed |
//              highspeed-rss            (default: restricted)
//   --csv      dump the Web100 time series instead of the summary
//
// Examples:
//   rsslab --variant reno --rtt 120 --duration 30
//   rsslab --variant restricted --loss 0.001 --csv > run.csv

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/presets.hpp"
#include "web100/csv_export.hpp"
#include "workload/apps.hpp"

using namespace rss;
using namespace rss::sim::literals;

namespace {

struct Args {
  std::string variant{"restricted"};
  std::int64_t rtt_ms{60};
  std::size_t ifq{100};
  std::uint64_t rate_mbps{100};
  std::int64_t duration_s{25};
  double loss{0.0};
  std::int64_t jitter_ms{0};
  double cross_mbps{0.0};
  std::uint64_t seed{1};
  bool csv{false};
};

/// Prints usage and exits: to stdout with 0 for --help, to stderr with 2
/// for a bad flag or value.
[[noreturn]] void usage(const char* argv0, int code = 2) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: %s [--variant NAME] [--rtt MS] [--ifq PKTS] [--rate MBPS]\n"
               "          [--duration S] [--loss P] [--jitter MS] [--cross MBPS]\n"
               "          [--seed N] [--csv]\n",
               argv0);
  std::exit(code);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (++i >= argc) usage(argv[0]);
      return argv[i];
    };
    if (flag == "--variant") {
      a.variant = value();
    } else if (flag == "--rtt") {
      a.rtt_ms = std::atoll(value());
    } else if (flag == "--ifq") {
      a.ifq = static_cast<std::size_t>(std::atoll(value()));
    } else if (flag == "--rate") {
      a.rate_mbps = static_cast<std::uint64_t>(std::atoll(value()));
    } else if (flag == "--duration") {
      a.duration_s = std::atoll(value());
    } else if (flag == "--loss") {
      a.loss = std::atof(value());
    } else if (flag == "--jitter") {
      a.jitter_ms = std::atoll(value());
    } else if (flag == "--cross") {
      a.cross_mbps = std::atof(value());
    } else if (flag == "--seed") {
      a.seed = static_cast<std::uint64_t>(std::atoll(value()));
    } else if (flag == "--csv") {
      a.csv = true;
    } else if (flag == "--help" || flag == "-h") {
      usage(argv[0], 0);
    } else {
      usage(argv[0]);
    }
  }
  if (a.rtt_ms <= 0 || a.ifq == 0 || a.rate_mbps == 0 || a.duration_s <= 0 ||
      a.loss < 0.0 || a.loss >= 1.0 || a.jitter_ms < 0 || a.cross_mbps < 0.0) {
    usage(argv[0]);
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);

  scenario::CcFactory factory;
  try {
    factory = scenario::factory_by_name(args.variant);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  scenario::WanPathConfig cfg;
  cfg.seed = args.seed;
  cfg.path.nic_rate = net::DataRate::mbps(args.rate_mbps);
  cfg.path.ifq_capacity_packets = args.ifq;
  cfg.path.one_way_delay = sim::Time::milliseconds(args.rtt_ms / 2);
  cfg.web100_poll_period = 100_ms;
  auto wan = scenario::ScenarioBuilder{scenario::wan_path_spec(cfg)}.build(factory);

  net::PointToPointLink& link = *wan->device("sender", "receiver").link();
  if (args.loss > 0.0) link.set_loss_rate(args.loss, sim::Rng{args.seed + 1});
  if (args.jitter_ms > 0) {
    link.set_jitter(sim::Time::milliseconds(args.jitter_ms), sim::Rng{args.seed + 2});
  }

  std::unique_ptr<workload::PoissonPacketSource> cross;
  if (args.cross_mbps > 0.0) {
    workload::PoissonPacketSource::Options xopt;
    xopt.dst_node = 2;
    xopt.payload_bytes = 1460;
    xopt.packets_per_second = args.cross_mbps * 1e6 / 8.0 / 1500.0;
    cross = std::make_unique<workload::PoissonPacketSource>(wan->simulation(),
                                                            wan->node("sender"), xopt);
  }

  const sim::Time horizon = sim::Time::seconds(args.duration_s);
  wan->start_flow(0, sim::Time::zero());
  wan->run_until(horizon);

  if (args.csv) {
    web100::export_csv(*wan->agent(0), std::cout, sim::Time::zero(), horizon, 100_ms);
    return 0;
  }

  const auto& mib = wan->sender(0).mib();
  std::printf("variant            %s\n", args.variant.c_str());
  std::printf("path               %llu Mbit/s, RTT %lld ms, IFQ %zu pkts",
              static_cast<unsigned long long>(args.rate_mbps),
              static_cast<long long>(args.rtt_ms), args.ifq);
  if (args.loss > 0) std::printf(", loss %.4f", args.loss);
  if (args.jitter_ms > 0) std::printf(", jitter %lld ms", static_cast<long long>(args.jitter_ms));
  if (cross) std::printf(", cross %.1f Mbit/s", args.cross_mbps);
  std::printf("\n");
  std::printf("goodput            %.2f Mbit/s over %lld s\n",
              wan->sender(0).goodput_mbps(sim::Time::zero(), horizon),
              static_cast<long long>(args.duration_s));
  std::printf("send-stalls        %llu\n", static_cast<unsigned long long>(mib.SendStall));
  std::printf("congestion signals %llu (fast-retransmit %llu, timeouts %llu, cwr %llu)\n",
              static_cast<unsigned long long>(mib.CongestionSignals),
              static_cast<unsigned long long>(mib.FastRetran),
              static_cast<unsigned long long>(mib.Timeouts),
              static_cast<unsigned long long>(mib.OtherReductions));
  std::printf("segments out       %llu (%llu retransmitted)\n",
              static_cast<unsigned long long>(mib.PktsOut),
              static_cast<unsigned long long>(mib.PktsRetrans));
  std::printf("max cwnd           %.0f segments\n", mib.MaxCwnd / 1460.0);
  std::printf("smoothed RTT       %lld ms (min %lld ms)\n",
              static_cast<long long>(mib.SmoothedRTT.milliseconds_count()),
              static_cast<long long>(mib.MinRTT.milliseconds_count()));
  return 0;
}
