#pragma once

#include <optional>

namespace rss::control {

/// Gains in the ISA "standard" form the paper quotes (§3):
///
///   u(t) = Kp * ( E + (1/Ti) ∫E dt + Td * dE/dt )
///
/// Ti is the integral (reset) time in seconds, Td the derivative time in
/// seconds. Ti = +inf (or <= 0, treated as "off") disables integral action;
/// Td = 0 disables derivative action.
struct PidGains {
  double kp{1.0};
  double ti{0.0};  // <= 0 means no integral action
  double td{0.0};  // 0 means no derivative action

  [[nodiscard]] bool has_integral() const { return ti > 0.0; }
  [[nodiscard]] bool has_derivative() const { return td > 0.0; }
};

/// Saturation limits applied to the controller output.
struct OutputLimits {
  double min{-1e18};
  double max{+1e18};
};

/// Discrete PID controller with:
///  * variable sampling interval (event-driven callers pass dt per update —
///    in RSS the "sample clock" is the ACK arrival process),
///  * backward-Euler integral,
///  * derivative on error through a first-order filter (cutoff Td/N) so a
///    step disturbance does not produce an unbounded kick,
///  * conditional-integration anti-windup: the integral term freezes while
///    the output is saturated and the error would push it further into
///    saturation.
///
/// This is the controller of the paper's §3; tests verify textbook step
/// responses against closed forms.
class PidController {
 public:
  PidController() = default;
  explicit PidController(PidGains gains, OutputLimits limits = {},
                         double derivative_filter_n = 10.0)
      : gains_{gains}, limits_{limits}, filter_n_{derivative_filter_n} {}

  /// Advance the controller by one sample: `error` = setpoint - process
  /// variable, `dt` = seconds since the previous update (> 0). Returns the
  /// saturated output.
  ///
  /// `allow_integration = false` freezes the integral for this sample
  /// ("integral separation"): callers use it while the error is far outside
  /// the linear band, where integrating would only wind up — RSS does this
  /// during the sub-BDP slow-start phase when the IFQ drains to empty every
  /// round.
  double update(double error, double dt, bool allow_integration = true);

  /// Forget all state (integral, derivative filter, last error).
  void reset();

  /// Re-centre the integral term (used by RSS when a send-stall proves the
  /// integral has wound up past reality).
  void set_integral(double value) { integral_ = value; }

  [[nodiscard]] const PidGains& gains() const { return gains_; }
  [[nodiscard]] OutputLimits limits() const { return limits_; }

  [[nodiscard]] double integral() const { return integral_; }
  [[nodiscard]] double last_output() const { return last_output_; }

 private:
  PidGains gains_{};
  OutputLimits limits_{};
  double filter_n_{10.0};

  double integral_{0.0};         // ∫E dt accumulated (pre-gain)
  double derivative_state_{0.0}; // filtered dE/dt
  std::optional<double> last_error_;
  double last_output_{0.0};
};

}  // namespace rss::control
