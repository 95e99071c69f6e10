// Layer drivers of the traced run. Each one times a single layer's
// public calls from outside, fed with the workload's own object id and
// size stream, the per-node capacity of its 1% cell and the network's
// path shapes, so a layer's cost here tracks what the replay asks of it.
#include "layers.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "cache/dcache.h"
#include "cache/descriptor.h"
#include "cache/flat_lru.h"
#include "cache/frequency.h"
#include "cache/ncl_cache.h"
#include "core/placement.h"
#include "sim/event_engine.h"
#include "trace/mapped_trace.h"
#include "trace/trace_io.h"

namespace perfbench {

namespace {

using cascache::trace::ObjectId;
using cascache::trace::Request;
using cascache::trace::RequestSpan;
using cascache::util::Status;

// Keeps a result observable so the timed loops cannot be folded away.
volatile double g_sink = 0.0;

double NsPerOp(double seconds, uint64_t ops) {
  return ops == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(ops);
}

double Share(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

/// Link delay of a request's first hop toward its server (the miss
/// penalty per byte a leaf or MAN cache sees), memoized per (requester
/// node, server) since routes are fixed.
class FirstHopDelay {
 public:
  FirstHopDelay(const cascache::sim::Network* network,
                const cascache::trace::ObjectCatalog* catalog)
      : network_(network),
        catalog_(catalog),
        memo_(static_cast<size_t>(network->num_nodes()) *
                  catalog->num_servers(),
              -1.0) {}

  double operator()(const Request& r) {
    const cascache::topology::NodeId from = network_->RequesterNode(r.client);
    const uint32_t server = catalog_->server(r.object);
    double& slot = memo_[static_cast<size_t>(from) * catalog_->num_servers() +
                         server];
    if (slot < 0.0) {
      const std::vector<cascache::topology::NodeId> path =
          network_->PathToServer(from, server);
      slot = path.size() >= 2 ? network_->LinkDelay(path[0], path[1])
                              : network_->server_link_delay();
    }
    return slot;
  }

 private:
  const cascache::sim::Network* network_;
  const cascache::trace::ObjectCatalog* catalog_;
  std::vector<double> memo_;
};

Status TraceDrivers(const LayerInput& in, SpanLog* log,
                    std::map<std::string, double>* out) {
  const std::string path = in.work_dir + "/layer-trace.cctr";
  {
    ScopedSpan span(log, "layer.trace.write");
    const Clock::time_point t0 = Clock::now();
    CASCACHE_ASSIGN_OR_RETURN(
        std::unique_ptr<cascache::trace::TraceWriter> writer,
        cascache::trace::TraceWriter::Create(path, *in.catalog,
                                             in.requests.size()));
    constexpr size_t kBlock = 1 << 16;
    for (size_t i = 0; i < in.requests.size(); i += kBlock) {
      const size_t n = std::min(kBlock, in.requests.size() - i);
      CASCACHE_RETURN_IF_ERROR(writer->Append(&in.requests[i], n));
    }
    CASCACHE_RETURN_IF_ERROR(writer->Close());
    const double seconds = SecondsBetween(t0, Clock::now());
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
      return Status::IoError("stat " + path);
    }
    (*out)["trace.write_mb_per_s"] =
        static_cast<double>(st.st_size) / 1e6 / seconds;
  }
  std::unique_ptr<cascache::trace::MappedTrace> mapped;
  {
    ScopedSpan span(log, "layer.trace.map_open");
    const Clock::time_point t0 = Clock::now();
    CASCACHE_ASSIGN_OR_RETURN(mapped,
                              cascache::trace::MappedTrace::Open(path));
    (*out)["trace.map_open_s"] = SecondsBetween(t0, Clock::now());
  }
  {
    // One pass takes milliseconds, so passes repeat until the scan has
    // run for kMinScanSeconds. Each pass is a fresh StreamingView, which
    // releases the pages it consumed as the mapped replay does.
    ScopedSpan span(log, "layer.trace.scan");
    constexpr double kMinScanSeconds = 0.2;
    constexpr size_t kReleaseEvery = 1 << 20;
    double time_sum = 0.0;
    uint64_t id_sum = 0;
    uint64_t scanned = 0;
    const Clock::time_point t0 = Clock::now();
    double seconds = 0.0;
    do {
      const cascache::trace::WorkloadView view = mapped->StreamingView();
      const RequestSpan requests = view.requests;
      for (size_t i = 0; i < requests.size(); ++i) {
        time_sum += requests[i].time;
        id_sum += requests[i].object;
        if ((i + 1) % kReleaseEvery == 0) view.on_consumed(i + 1);
      }
      view.on_consumed(requests.size());
      scanned += requests.size();
      seconds = SecondsBetween(t0, Clock::now());
    } while (seconds < kMinScanSeconds && scanned > 0);
    g_sink = time_sum + static_cast<double>(id_sum);
    (*out)["trace.scan_rps"] = static_cast<double>(scanned) / seconds;
  }
  mapped.reset();
  std::remove(path.c_str());
  return Status::Ok();
}

void LruDriver(const LayerInput& in, SpanLog* log,
               std::map<std::string, double>* out) {
  ScopedSpan span(log, "layer.cache.lru");
  cascache::cache::FlatLru lru(in.capacity_bytes);
  uint64_t hits = 0;
  const Clock::time_point t0 = Clock::now();
  for (const Request& r : in.requests) {
    if (lru.Touch(r.object)) {
      ++hits;
    } else {
      lru.InsertAbsent(r.object, in.catalog->size(r.object));
    }
  }
  const double seconds = SecondsBetween(t0, Clock::now());
  g_sink = static_cast<double>(lru.used_bytes());
  (*out)["cache.lru.ns_per_op"] = NsPerOp(seconds, in.requests.size());
  (*out)["cache.lru.hit_ratio"] = Share(hits, in.requests.size());
}

/// Greedy NCL store driven the way LNC-R drives it: a hit refreshes the
/// object's loss, a miss plans the eviction and admits the object when
/// the victims are worth less than it. Loss = access count x size x
/// first-hop delay, the f*m product the schemes record.
void NclDriver(const LayerInput& in, const std::vector<double>& hop_delay,
               SpanLog* log, std::map<std::string, double>* out) {
  ScopedSpan span(log, "layer.cache.ncl");
  cascache::cache::NclCache ncl(in.capacity_bytes);
  cascache::cache::NclCache::EvictionPlan plan;
  std::vector<uint32_t> counts(in.catalog->num_objects(), 0);
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  const Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < in.requests.size(); ++i) {
    const ObjectId id = in.requests[i].object;
    const uint64_t size = in.catalog->size(id);
    const double loss = static_cast<double>(++counts[id]) *
                        static_cast<double>(size) * hop_delay[i];
    if (ncl.Contains(id)) {
      ncl.UpdateLoss(id, loss);
      continue;
    }
    ncl.PlanEvictionInto(size, &plan);
    if (!plan.feasible || plan.cost_loss > loss) continue;
    bool inserted = false;
    evictions += ncl.Insert(id, size, loss, &inserted).size();
    inserts += inserted ? 1 : 0;
  }
  const double seconds = SecondsBetween(t0, Clock::now());
  g_sink = static_cast<double>(ncl.used_bytes());
  (*out)["cache.ncl.ns_per_op"] = NsPerOp(seconds, in.requests.size());
  (*out)["cache.ncl.evictions_per_insert"] = Share(evictions, inserts);
}

/// d-cache of the size the simulator gives Coordinated and LNC-R (ratio x
/// the objects the main cache holds), LFU policy, each access recorded
/// through the frequency estimator as the schemes do.
void DCacheDriver(const LayerInput& in, SpanLog* log,
                  std::map<std::string, double>* out) {
  ScopedSpan span(log, "layer.cache.dcache");
  const double objects_held = static_cast<double>(in.capacity_bytes) /
                              std::max(1.0, in.catalog->mean_size());
  cascache::cache::DCache dcache(static_cast<size_t>(
      std::max(1.0, std::floor(in.dcache_ratio * objects_held))));
  const cascache::cache::FrequencyEstimator estimator;
  uint64_t hits = 0;
  const Clock::time_point t0 = Clock::now();
  for (const Request& r : in.requests) {
    if (cascache::cache::ObjectDescriptor* desc = dcache.Find(r.object);
        desc != nullptr) {
      ++hits;
      estimator.OnAccess(desc, r.time);
      dcache.Refresh(r.object, *desc);
    } else {
      cascache::cache::ObjectDescriptor fresh;
      fresh.size = in.catalog->size(r.object);
      estimator.OnAccess(&fresh, r.time);
      dcache.Insert(r.object, fresh);
    }
  }
  const double seconds = SecondsBetween(t0, Clock::now());
  g_sink = static_cast<double>(dcache.size());
  (*out)["cache.dcache.ns_per_op"] = NsPerOp(seconds, in.requests.size());
  (*out)["cache.dcache.hit_ratio"] = Share(hits, in.requests.size());
}

/// One descriptor per distinct object of the stream; each request records
/// an access and reads the estimate back.
void FrequencyDriver(const LayerInput& in, SpanLog* log,
                     std::map<std::string, double>* out) {
  constexpr uint32_t kUnset = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> dense(in.catalog->num_objects(), kUnset);
  uint32_t distinct = 0;
  for (const Request& r : in.requests) {
    if (dense[r.object] == kUnset) dense[r.object] = distinct++;
  }
  std::vector<cascache::cache::ObjectDescriptor> descs(distinct);
  ScopedSpan span(log, "layer.cache.freq");
  const cascache::cache::FrequencyEstimator estimator;
  double sum = 0.0;
  const Clock::time_point t0 = Clock::now();
  for (const Request& r : in.requests) {
    cascache::cache::ObjectDescriptor* desc = &descs[dense[r.object]];
    estimator.OnAccess(desc, r.time);
    sum += estimator.Estimate(desc, r.time);
  }
  const double seconds = SecondsBetween(t0, Clock::now());
  g_sink = sum;
  (*out)["cache.freq.ns_per_op"] = NsPerOp(seconds, in.requests.size());
}

/// The paper's DP on the delivery paths of the stream's requests: index
/// 0 is the cache next to the server, the last index the requesting
/// cache. m is the size-scaled delay from the server end, f the
/// request's running access count (scaled up toward the server, which
/// sees more of the object's traffic), and l the loss of displacing the
/// previously requested object there.
void DpDriver(const LayerInput& in, SpanLog* log,
              std::map<std::string, double>* out) {
  constexpr size_t kSamples = 1 << 16;
  constexpr uint64_t kSolves = 1 << 20;
  const size_t samples = std::min(kSamples, in.requests.size());
  std::vector<cascache::core::PlacementInput> inputs(samples);
  std::vector<uint32_t> counts(in.catalog->num_objects(), 0);
  double prev_count = 0.0;
  for (size_t s = 0; s < samples; ++s) {
    const Request& r = in.requests[s];
    const uint32_t server = in.catalog->server(r.object);
    std::vector<cascache::topology::NodeId> path =
        in.network->PathToServer(in.network->RequesterNode(r.client), server);
    std::reverse(path.begin(), path.end());  // Server end first.
    const double size = static_cast<double>(in.catalog->size(r.object));
    const double count = static_cast<double>(++counts[r.object]);
    cascache::core::PlacementInput& input = inputs[s];
    double delay = in.network->server_link_delay();
    for (size_t i = 0; i < path.size(); ++i) {
      if (i > 0) delay += in.network->LinkDelay(path[i - 1], path[i]);
      input.f.push_back(count * static_cast<double>(path.size() - i));
      input.m.push_back(size * delay);
      input.l.push_back(size * delay * prev_count);
    }
    prev_count = count;
  }
  ScopedSpan span(log, "layer.core.dp");
  cascache::core::PlacementScratch scratch;
  cascache::core::PlacementResult result;
  double gain = 0.0;
  const uint64_t solves = samples == 0 ? 0 : kSolves;
  const Clock::time_point t0 = Clock::now();
  for (uint64_t k = 0; k < solves; ++k) {
    cascache::core::SolvePlacementDPInto(inputs[k % samples], &scratch,
                                         &result);
    gain += result.gain;
  }
  const double seconds = SecondsBetween(t0, Clock::now());
  g_sink = gain;
  (*out)["core.dp.ns_per_solve"] = NsPerOp(seconds, solves);
}

/// The stream's arrivals through the event heap the contention replay
/// uses: arrivals are scheduled in 1024-request windows (the replay's
/// lookahead), and each popped arrival schedules its completion one
/// first-hop round trip later. Ops = schedules + pops.
void EventDriver(const LayerInput& in, const std::vector<double>& hop_delay,
                 SpanLog* log, std::map<std::string, double>* out) {
  ScopedSpan span(log, "layer.sim.event");
  cascache::sim::EventEngine engine;
  constexpr size_t kWindow = 1024;
  uint64_t ops = 0;
  const Clock::time_point t0 = Clock::now();
  for (size_t begin = 0; begin < in.requests.size(); begin += kWindow) {
    const size_t end = std::min(in.requests.size(), begin + kWindow);
    for (size_t i = begin; i < end; ++i) {
      engine.Schedule(cascache::sim::EventKind::kArrival,
                      in.requests[i].time, i);
    }
    ops += end - begin;
    size_t arrivals_left = end - begin;
    cascache::sim::Event event;
    while (arrivals_left > 0 && engine.Pop(&event)) {
      ++ops;
      if (event.kind == cascache::sim::EventKind::kArrival) {
        --arrivals_left;
        const size_t i = static_cast<size_t>(event.payload);
        engine.Schedule(cascache::sim::EventKind::kCompletion,
                        event.time + 2.0 * hop_delay[i], i);
        ++ops;
      }
    }
  }
  cascache::sim::Event event;
  while (engine.Pop(&event)) ++ops;
  const double seconds = SecondsBetween(t0, Clock::now());
  g_sink = engine.clock().now();
  (*out)["sim.event.ops_per_s"] = static_cast<double>(ops) / seconds;
}

}  // namespace

Status RunLayerDrivers(const LayerInput& in, SpanLog* log,
                       std::map<std::string, double>* metrics) {
  // Per-request first-hop delay, resolved before any driver's clock
  // starts.
  std::vector<double> hop_delay(in.requests.size());
  FirstHopDelay first_hop(in.network, in.catalog);
  for (size_t i = 0; i < in.requests.size(); ++i) {
    hop_delay[i] = first_hop(in.requests[i]);
  }
  CASCACHE_RETURN_IF_ERROR(TraceDrivers(in, log, metrics));
  LruDriver(in, log, metrics);
  NclDriver(in, hop_delay, log, metrics);
  DCacheDriver(in, log, metrics);
  FrequencyDriver(in, log, metrics);
  DpDriver(in, log, metrics);
  EventDriver(in, hop_delay, log, metrics);
  return Status::Ok();
}

}  // namespace perfbench
