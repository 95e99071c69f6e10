#ifndef CASCACHE_PERFBENCH_LAYERS_H_
#define CASCACHE_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>

#include "sim/network.h"
#include "spans.h"
#include "trace/object_catalog.h"
#include "util/status.h"

namespace perfbench {

/// What the traced run's layer drivers replay: the workload's own
/// request stream, catalog and network, and the per-node capacity of the
/// workload's 1% cell. Borrowed; everything must outlive the call.
struct LayerInput {
  const cascache::trace::ObjectCatalog* catalog = nullptr;
  cascache::trace::RequestSpan requests;
  const cascache::sim::Network* network = nullptr;
  uint64_t capacity_bytes = 0;
  /// d-cache size as a multiple of the objects the main cache holds
  /// (SimOptions::dcache_ratio).
  double dcache_ratio = 3.0;
  /// Directory for the trace file the trace drivers write and map.
  std::string work_dir;
};

/// Runs each layer driver once under its own span (children of the
/// innermost open span of `log`) and adds its per-layer metrics
/// (trace.*, cache.*, core.dp.*, sim.event.ops_per_s) to `metrics`.
cascache::util::Status RunLayerDrivers(const LayerInput& input, SpanLog* log,
                                       std::map<std::string, double>* metrics);

}  // namespace perfbench

#endif  // CASCACHE_PERFBENCH_LAYERS_H_
