// Cross-traffic robustness demo: the measured bulk flow shares its host
// NIC with a Poisson datagram source ("the rest of the traffic sharing the
// congested link", paper §1). Shows that RSS's controller regulates the
// *combined* IFQ occupancy: the TCP flow cedes bandwidth to the cross
// traffic yet never stalls, while standard TCP stalls repeatedly. Also
// demonstrates the PacketTracer and the Web100 CSV exporter.
//
// Usage: cross_traffic [cross_mbps] (default 20)

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "net/trace.hpp"
#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/presets.hpp"
#include "web100/csv_export.hpp"
#include "workload/apps.hpp"

using namespace rss;
using namespace rss::sim::literals;

namespace {

void run(const char* label, const scenario::CcFactory& factory, double cross_mbps,
         bool dump_csv) {
  scenario::WanPathConfig cfg;
  cfg.web100_poll_period = 250_ms;
  auto wan = scenario::ScenarioBuilder{scenario::wan_path_spec(cfg)}.build(factory);

  workload::PoissonPacketSource::Options xopt;
  xopt.dst_node = 2;
  xopt.payload_bytes = 1460;
  xopt.packets_per_second = cross_mbps * 1e6 / 8.0 / 1500.0;
  workload::PoissonPacketSource cross{wan->simulation(), wan->node("sender"), xopt};

  net::PacketTracer tracer;
  tracer.attach(wan->device("sender", "receiver"));

  const sim::Time horizon = 20_s;
  wan->start_flow(0, sim::Time::zero());
  wan->run_until(horizon);

  const double tcp_mbps = wan->sender(0).goodput_mbps(sim::Time::zero(), horizon);
  const double cross_got =
      static_cast<double>(cross.packets_sent()) * 1500.0 * 8.0 / horizon.to_seconds() / 1e6;
  std::printf("%-24s tcp %6.1f Mb/s + cross %5.1f Mb/s  | tcp stalls %4llu, "
              "cross drops %5llu\n",
              label, tcp_mbps, cross_got,
              static_cast<unsigned long long>(wan->sender(0).mib().SendStall),
              static_cast<unsigned long long>(cross.packets_stalled()));

  if (dump_csv) {
    std::printf("\nWeb100 log of the RSS run (1 s grid):\n");
    web100::export_csv(*wan->agent(0), std::cout,
                       {"SendStall", "CurCwnd", "ThruBytesAcked", "SmoothedRTT_ms"},
                       sim::Time::zero(), horizon, 1_s);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const double cross_mbps = argc > 1 ? std::atof(argv[1]) : 20.0;
  if (cross_mbps <= 0.0 || cross_mbps >= 100.0) {
    std::fprintf(stderr, "cross_mbps must be in (0, 100)\n");
    return 1;
  }
  std::printf("bulk TCP + %.0f Mb/s Poisson cross traffic through one 100 Mb/s NIC "
              "(IFQ 100)\n\n",
              cross_mbps);
  run("standard TCP", scenario::make_reno_factory(), cross_mbps, false);
  run("restricted slow-start", scenario::make_rss_factory(), cross_mbps, true);
  return 0;
}
