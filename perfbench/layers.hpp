#pragma once

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// One named per-layer row: a metric name from BENCHMARK.json and its value.
using LayerRow = std::pair<std::string, double>;

/// Per-operation costs of single layers, each timed from outside through the
/// layer's public interface: scheduler hold and rearm at steady pending
/// populations, one enqueue+dequeue pair per qdisc at half occupancy,
/// CongestionControl::on_ack per variant through a fake CcHost, and one
/// Web100 poll. Every row is the median of several timed repetitions, in ns
/// per operation.
[[nodiscard]] std::vector<LayerRow> micro_layer_rows();

}  // namespace perfbench
