#include "scenario/tuning.hpp"

#include <vector>

#include "core/restricted_slow_start.hpp"
#include "scenario/builder.hpp"
#include "scenario/cc_factories.hpp"
#include "scenario/presets.hpp"

namespace rss::scenario {

std::optional<control::TuningResult> tune_restricted_slow_start(const TuneOptions& options) {
  const auto experiment =
      [&options](double kp) -> std::vector<control::ResponseSample> {
    core::RestrictedSlowStart::Options rss_opt;
    rss_opt.setpoint_fraction = options.setpoint_fraction;
    rss_opt.gains = control::PidGains{kp, 0.0, 0.0};  // P-only probe
    rss_opt.min_increment_mss = -1.0;                 // symmetric authority
    rss_opt.max_increment_mss = 1.0;
    rss_opt.sample_period = options.controller_period;

    WanPathConfig cfg;
    cfg.path = options.path;
    cfg.enable_web100 = false;  // keep the probe lean
    auto wan = ScenarioBuilder{wan_path_spec(cfg)}.build(make_rss_factory(rss_opt));
    const net::NetDevice& nic = wan->device("sender", "receiver");

    // Record the process variable — IFQ occupancy — on a fixed grid,
    // discarding the slow-start ramp (see TuneOptions::warmup).
    std::vector<control::ResponseSample> response;
    response.reserve(static_cast<std::size_t>(options.duration / options.sample_period) + 1);
    wan->simulation().every(options.sample_period, [&](sim::Time now) {
      if (now >= options.warmup) {
        response.push_back({now.to_seconds(), static_cast<double>(nic.occupancy_packets())});
      }
      return true;
    });

    wan->start_flow(0, sim::Time::zero());
    wan->run_until(options.duration);
    return response;
  };

  const control::ZieglerNicholsTuner tuner{options.tuner};
  return tuner.tune(experiment);
}

}  // namespace rss::scenario
