#include "sim/simulator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>

#include "cache/flat_store.h"

namespace cascache::sim {

namespace {

/// Above this node count the dense (from x attach) route table is not
/// worth its n^2 memory; routes resolve per request instead.
constexpr int kRouteCacheMaxNodes = 512;

/// Requests decoded per block in ReplayRange: large enough to amortize
/// the loop split, small enough to stay resident in L1/L2.
constexpr size_t kDecodeBlock = 1024;

/// Above this catalog size the memoized size-scale table (8 bytes per
/// object, one per simulator) is skipped and the replay divides inline.
/// The stores' id indexes follow their own rule, cache::UseHashedIndex.
constexpr uint32_t kSizeScaleTableMaxObjects = 1u << 24;

/// Clients below this id memoize their requester node (4 bytes each, at
/// most 4 MiB); a trace record's client id is untrusted input, so ids
/// above it hash through Network::RequesterNode on every request instead
/// of sizing the memo to the id.
constexpr trace::ClientId kRequesterMemoMaxClients = 1u << 20;

/// The replay decoders' answer to a request naming an object outside the
/// catalog (a hostile or corrupt trace record): Run() fails with it
/// instead of reading past the catalog's arrays.
util::Status ObjectOutOfRange(size_t index, trace::ObjectId object,
                              uint32_t num_objects) {
  return util::Status::InvalidArgument(
      "request " + std::to_string(index) + " names object " +
      std::to_string(object) + ", outside the catalog of " +
      std::to_string(num_objects) + " objects");
}

/// Fills the exchange-invariant record fields and emits. `trace` must be
/// non-null; callers keep the disabled path to one pointer test.
void EmitEvent(EventTrace* trace, const MessageContext& ctx,
               TraceEventType type, int32_t node, int32_t level,
               double value) {
  TraceEvent event;
  event.request_index = ctx.telemetry.request_index;
  event.time = ctx.now;
  event.type = type;
  event.node = node;
  event.level = level;
  event.object = ctx.object;
  event.size_bytes = ctx.size;
  event.value = value;
  trace->Emit(event);
}

}  // namespace

util::Status TierParams::Validate() const {
  if (!(ram_fraction >= 0.0 && ram_fraction <= 1.0)) {
    return util::Status::InvalidArgument(
        "tier ram_fraction must be in [0, 1]");
  }
  if (ram_hit_cost < 0.0 || disk_hit_cost < 0.0) {
    return util::Status::InvalidArgument("tier hit costs must be >= 0");
  }
  return util::Status::Ok();
}

util::Status SiblingParams::Validate() const {
  if (level < -1) {
    return util::Status::InvalidArgument(
        "sibling level must be >= 0, or -1 for every level");
  }
  if (max_probes < 0) {
    return util::Status::InvalidArgument("sibling max_probes must be >= 0");
  }
  if (probe_cost < 0.0) {
    return util::Status::InvalidArgument("sibling probe_cost must be >= 0");
  }
  return util::Status::Ok();
}

Simulator::Simulator(const Network* network, CacheSet* caches,
                     schemes::CachingScheme* scheme,
                     const SimOptions& options)
    : network_(network),
      caches_(caches),
      scheme_(scheme),
      options_(options),
      catalog_(&network->catalog()),
      mean_object_size_(network->mean_object_size()),
      server_link_delay_(network->server_link_delay()),
      server_link_hops_(network->server_link_hops()),
      scheme_observes_ascent_(scheme != nullptr && scheme->observes_ascent()),
      scheme_uses_link_costs_(scheme == nullptr || scheme->uses_link_costs()),
      scheme_plain_lru_(scheme != nullptr && scheme->plain_lru_replay()) {
  // The exchange context's invariant fields point at the simulator's
  // reused per-request buffers; the path/delay pointers are repointed at
  // the cached route by every StepDecoded.
  ctx_.path = &arena_.path;
  ctx_.link_delays = &arena_.link_delays;
  ctx_.link_costs = &arena_.link_costs;
  ctx_.server_link_delay = server_link_delay_;
  ctx_.caches = caches_;
  // Null/mismatched wiring is a programming error, not a configuration
  // one: fail fast.
  CASCACHE_CHECK(network != nullptr);
  CASCACHE_CHECK(caches != nullptr);
  CASCACHE_CHECK(caches->num_nodes() == network->num_nodes());
  CASCACHE_CHECK(scheme != nullptr);
  node_levels_.resize(static_cast<size_t>(network->num_nodes()));
  for (topology::NodeId v = 0; v < network->num_nodes(); ++v) {
    node_levels_[static_cast<size_t>(v)] = network->NodeLevel(v);
  }
  ctx_.telemetry.node_levels = node_levels_.data();
  if (network->num_nodes() <= kRouteCacheMaxNodes) {
    route_cache_.resize(static_cast<size_t>(network->num_nodes()) *
                        static_cast<size_t>(network->num_nodes()));
  }
  if (options.trace.enabled) {
    trace_ = std::make_unique<EventTrace>(options.trace);
  }
  // Option values can come straight from the CLI; defer their rejection
  // to Run() so callers get a Status instead of an abort. Direct Step()
  // drivers fall back to the default cost model meanwhile.
  if (!(options.warmup_fraction >= 0.0 && options.warmup_fraction < 1.0)) {
    init_status_ = util::Status::InvalidArgument(
        "warmup_fraction must be in [0, 1)");
    return;
  }
  if (util::Status status = options_.tier.Validate(); !status.ok()) {
    init_status_ = status;
    return;
  }
  if (util::Status status = options_.sibling.Validate(); !status.ok()) {
    init_status_ = status;
    return;
  }
  tiered_ = options_.tier.active();
  ctx_.tiered = tiered_;
  // Sibling cooperation silently disables itself on topologies without
  // sibling sets (en-route, or a branching-1 tree): every probe set would
  // be empty, so skipping the leg entirely is behavior-identical.
  sibling_on_ = options_.sibling.enabled && network->HasSiblings();
  if (options_.contention.active()) {
    if (util::Status status = options_.contention.Validate(); !status.ok()) {
      init_status_ = status;
      return;
    }
    queueing_ = std::make_unique<QueueingPlane>(network->num_nodes());
    ctx_.queueing = queueing_.get();
    ctx_.contention = &options_.contention;
    ascent_op_cost_ =
        options_.contention.lookup_cost +
        (scheme->uses_dcache() ? options_.contention.dcache_cost : 0.0);
    // A finite link also charges transmission time, and the cost-aware
    // schemes should optimize what a loaded link actually costs — feed
    // the bandwidth into the cost model before it is built.
    options_.cost_model.link_transfer_bandwidth =
        options_.contention.link_bandwidth;
  }
  auto model_or = CostModel::Create(options_.cost_model);
  if (!model_or.ok()) {
    init_status_ = model_or.status();
    return;
  }
  cost_model_ = *model_or;
  if (options.faults.active()) {
    if (util::Status status = options.faults.Validate(); !status.ok()) {
      init_status_ = status;
      return;
    }
    faults_ = std::make_unique<FaultPlane>(options.faults, network_);
  }
}

Simulator::Simulator(Network* network, schemes::CachingScheme* scheme,
                     const SimOptions& options)
    : Simulator(network, network->caches(), scheme, options) {}

util::Status Simulator::EnableCoherency(uint32_t num_objects) {
  const CoherencyParams& params = options_.coherency;
  if (params.protocol == CoherencyProtocol::kNone &&
      params.mutable_fraction == 0.0) {
    updates_.reset();  // Paper setting: nothing to track.
    return util::Status::Ok();
  }
  CASCACHE_ASSIGN_OR_RETURN(UpdateSchedule schedule,
                            UpdateSchedule::Create(num_objects, params));
  updates_ = std::make_unique<UpdateSchedule>(std::move(schedule));
  return util::Status::Ok();
}

util::Status Simulator::Run(const trace::Workload& workload,
                            uint64_t capacity_bytes_per_node) {
  return Run(workload.View(), capacity_bytes_per_node);
}

util::Status Simulator::Run(const trace::WorkloadView& view,
                            uint64_t capacity_bytes_per_node) {
  using Clock = std::chrono::steady_clock;
  const auto seconds_between = [](Clock::time_point from,
                                  Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
  };
  const Clock::time_point t_start = Clock::now();
  CASCACHE_RETURN_IF_ERROR(init_status_);
  if (capacity_bytes_per_node == 0) {
    return util::Status::InvalidArgument("cache capacity must be > 0");
  }
  if (view.requests.empty()) {
    return util::Status::InvalidArgument("empty workload");
  }
  if (view.catalog == nullptr) {
    return util::Status::InvalidArgument("workload view without catalog");
  }
  CASCACHE_RETURN_IF_ERROR(EnableCoherency(view.catalog->num_objects()));

  CacheNodeConfig config;
  config.mode = scheme_->cache_mode();
  config.capacity_bytes = capacity_bytes_per_node;
  config.frequency = options_.frequency;
  // Two-tier nodes: the RAM front sits over the full-capacity mode store
  // (inclusive, see TierParams), so the disk tier's capacity — and with
  // it every hit/miss decision — is exactly the untiered store's.
  config.ram_fraction = options_.tier.ram_fraction;
  config.ram_capacity_bytes = options_.tier.ram_capacity_bytes;
  // Large catalogs: dense per-store id→slot arrays would cost 4 bytes x
  // num_objects x num_stores; every store switches to hashed indexes
  // sized by residency instead.
  config.sparse_ids = cache::UseHashedIndex(catalog_->num_objects());
  if (scheme_->uses_dcache()) {
    const double avg_objects =
        static_cast<double>(capacity_bytes_per_node) / mean_object_size_;
    config.dcache_entries = static_cast<size_t>(
        std::max(1.0, options_.dcache_ratio * avg_objects));
    config.dcache_policy = options_.dcache_policy;
  }
  if (options_.level_capacity_growth == 1.0 ||
      network_->MaxNodeLevel() == 0) {
    caches_->Configure(config);
  } else {
    // Distribute the same total budget across levels with capacity
    // proportional to growth^level.
    const int n = network_->num_nodes();
    const double growth = options_.level_capacity_growth;
    if (growth <= 0.0) {
      return util::Status::InvalidArgument(
          "level_capacity_growth must be > 0");
    }
    double weight_sum = 0.0;
    std::vector<double> weights(static_cast<size_t>(n));
    for (topology::NodeId v = 0; v < n; ++v) {
      weights[static_cast<size_t>(v)] =
          std::pow(growth, network_->NodeLevel(v));
      weight_sum += weights[static_cast<size_t>(v)];
    }
    const double budget =
        static_cast<double>(capacity_bytes_per_node) * static_cast<double>(n);
    std::vector<uint64_t> capacities(static_cast<size_t>(n));
    for (topology::NodeId v = 0; v < n; ++v) {
      capacities[static_cast<size_t>(v)] = std::max<uint64_t>(
          1, static_cast<uint64_t>(budget * weights[static_cast<size_t>(v)] /
                                   weight_sum));
    }
    caches_->ConfigureWithCapacities(config, capacities);
  }
  // Memoize each object's size/mean ratio: identical operands to the
  // per-request division, so latencies are bit-identical. Skipped for
  // huge catalogs (see kSizeScaleTableMaxObjects); the replay
  // fallback divides inline with the same operands.
  if (catalog_->num_objects() <= kSizeScaleTableMaxObjects) {
    size_scale_table_.resize(catalog_->num_objects());
    for (trace::ObjectId o = 0; o < catalog_->num_objects(); ++o) {
      size_scale_table_[o] =
          static_cast<double>(catalog_->size(o)) / mean_object_size_;
    }
  } else {
    size_scale_table_.clear();
    size_scale_table_.shrink_to_fit();
  }
  metrics_.Reset();
  metrics_.ResetNodes(network_->num_nodes());
  if (trace_ != nullptr) trace_->Clear();
  // Forget fault streams and applied crash epochs so a repeated Run
  // replays the same chaotic schedule bit-identically.
  if (faults_ != nullptr) faults_->Reset();
  engine_.Reset();
  if (queueing_ != nullptr) queueing_->Reset();
  step_index_ = 0;

  const size_t warmup_count = static_cast<size_t>(
      options_.warmup_fraction * static_cast<double>(view.requests.size()));
  const Clock::time_point t_configured = Clock::now();
  Clock::time_point t_warmed;
  if (queueing_ != nullptr) {
    // Event-driven policy: one heap-ordered loop spans warm-up and
    // measurement (warm-up completions may land inside the measured
    // window), so the phase split is not separately timed. The bounded
    // lookahead window revisits arrivals out of order, so on_consumed
    // page release does not apply here.
    t_warmed = t_configured;
    CASCACHE_RETURN_IF_ERROR(ReplayContended(view.requests, warmup_count));
  } else {
    // Analytic replay proceeds in bounded chunks so mapped sources can
    // drop consumed pages (WorkloadView::on_consumed). Chunk bounds are
    // multiples of the decode block and the block accumulator's integer
    // counters flush associatively, so chunked results are bit-identical
    // to one whole-range ReplayRange per phase.
    constexpr size_t kReplayChunk = 2 * 1024 * 1024;
    static_assert(kReplayChunk % kDecodeBlock == 0);
    const auto replay_phase = [&](size_t begin, size_t end, bool collect) {
      for (size_t c = begin; c < end; c += kReplayChunk) {
        const size_t chunk_end = std::min(end, c + kReplayChunk);
        CASCACHE_RETURN_IF_ERROR(
            ReplayRange(view.requests, c, chunk_end, collect));
        if (view.on_consumed) view.on_consumed(chunk_end);
      }
      return util::Status::Ok();
    };
    CASCACHE_RETURN_IF_ERROR(replay_phase(0, warmup_count, /*collect=*/false));
    t_warmed = Clock::now();
    CASCACHE_RETURN_IF_ERROR(
        replay_phase(warmup_count, view.requests.size(), /*collect=*/true));
  }
  const Clock::time_point t_done = Clock::now();
  phase_times_.configure_seconds = seconds_between(t_start, t_configured);
  phase_times_.warmup_seconds = seconds_between(t_configured, t_warmed);
  phase_times_.measure_seconds = seconds_between(t_warmed, t_done);
  return util::Status::Ok();
}

util::Status Simulator::ReplayContended(trace::RequestSpan requests,
                                        size_t warmup_count) {
  // Keep a bounded window of future arrivals on the heap: enough that
  // completions interleave with every arrival that could precede them,
  // without materializing the whole trace as events up front.
  constexpr size_t kArrivalWindow = 1024;
  const size_t total = requests.size();
  size_t next = 0;
  size_t arrivals_pending = 0;
  arrival_clock_ = 0.0;
  pending_.clear();
  pending_free_.clear();
  const uint32_t num_objects = catalog_->num_objects();
  const auto schedule_arrivals = [&] {
    while (next < total && arrivals_pending < kArrivalWindow) {
      engine_.Schedule(EventKind::kArrival,
                       NextArrivalTime(requests[next].time), next);
      ++next;
      ++arrivals_pending;
    }
  };
  schedule_arrivals();
  Event ev;
  while (engine_.Pop(&ev)) {
    if (ev.kind == EventKind::kArrival) {
      --arrivals_pending;
      const trace::Request& request = requests[ev.payload];
      if (request.object >= num_objects) [[unlikely]] {
        return ObjectOutOfRange(ev.payload, request.object, num_objects);
      }
      DecodedRequest decoded;
      decoded.object = request.object;
      decoded.size = catalog_->size(request.object);
      decoded.server = catalog_->server(request.object);
      decoded.requester = RequesterFor(request.client);
      decoded.attach = network_->ServerAttach(decoded.server);
      decoded.time = ev.time;  // The clock's (possibly ramped) arrival time.
      const bool collect = ev.payload >= warmup_count;
      StepOutcome out;
      StepDecoded(decoded, collect, nullptr, &out);
      uint64_t slot;
      if (!pending_free_.empty()) {
        slot = pending_free_.back();
        pending_free_.pop_back();
      } else {
        slot = pending_.size();
        pending_.emplace_back();
      }
      pending_[slot].metrics = out.metrics;
      pending_[slot].collect = collect;
      engine_.Schedule(EventKind::kCompletion, out.completion_time, slot);
      schedule_arrivals();
    } else {
      // Completion: the response reached the requester — record in
      // delivery order, which is where contended runs differ from the
      // analytic scan.
      PendingCompletion& done = pending_[ev.payload];
      if (done.collect) metrics_.Record(done.metrics);
      pending_free_.push_back(ev.payload);
    }
  }
  return util::Status::Ok();
}

double Simulator::NextArrivalTime(double trace_time) {
  const ContentionParams& cp = options_.contention;
  if (cp.arrival_rate <= 0.0) {
    // Trace-timed arrivals, monotonized so an unsorted trace cannot
    // schedule into the committed past.
    if (trace_time > arrival_clock_) arrival_clock_ = trace_time;
    return arrival_clock_;
  }
  // Open-loop ramp: rate(t) = arrival_rate * (1 + arrival_ramp * t),
  // stepped per arrival, optionally modulated by the diurnal sinusoid.
  // Validate() guarantees a positive rate (amplitude < 1).
  double rate = cp.arrival_rate * (1.0 + cp.arrival_ramp * arrival_clock_);
  if (cp.arrival_diurnal_amplitude > 0.0) {
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    rate *= 1.0 + cp.arrival_diurnal_amplitude *
                      std::sin(kTwoPi * arrival_clock_ /
                               cp.arrival_diurnal_period);
  }
  arrival_clock_ += 1.0 / rate;
  return arrival_clock_;
}

util::Status Simulator::ReplayRange(trace::RequestSpan requests,
                                    size_t begin, size_t end, bool collect) {
  // Decode-then-replay in blocks: the decode loop touches only the trace
  // and the catalog's flat arrays (branch-free, prefetch-friendly), the
  // replay loop only decoded integers. Ordering is exactly the trace
  // order, so results are bit-identical to one-at-a-time Step() calls.
  std::vector<DecodedRequest>& batch = arena_.batch;
  // Collected exchanges stream into the open block: the order-sensitive
  // per-request arithmetic (Welford stats, queue-wait sum) hits the
  // collector exactly as Record() would — bit-identical — while the
  // integer counters accumulate in block_stats_ and write back once per
  // range (MetricsCollector::FlushBlock) instead of once per request.
  if (collect) block_stats_ = {};
  const uint32_t num_objects = catalog_->num_objects();
  for (size_t block = begin; block < end; block += kDecodeBlock) {
    const size_t block_end = std::min(end, block + kDecodeBlock);
    batch.clear();
    for (size_t i = block; i < block_end; ++i) {
      const trace::Request& request = requests[i];
      if (request.object >= num_objects) [[unlikely]] {
        return ObjectOutOfRange(i, request.object, num_objects);
      }
      DecodedRequest decoded;
      decoded.object = request.object;
      decoded.size = catalog_->size(request.object);
      decoded.server = catalog_->server(request.object);
      decoded.requester = RequesterFor(request.client);
      decoded.attach = network_->ServerAttach(decoded.server);
      decoded.time = request.time;
      batch.push_back(decoded);
    }
    // Software-pipelined replay: resolve every request's route up front
    // (RouteFor fills its dense cache slot lazily and is idempotent, so
    // the early calls are invisible to results), then prefetch each
    // request's per-hop probe entries a few requests ahead of its replay.
    // The per-hop Contains chain is a string of dependent loads over ~MBs
    // of node index tables; issuing them early overlaps the misses with
    // the preceding requests' work. Skipped without the dense route table
    // (fallback re-resolves every call) and under fault injection (routes
    // may detour).
    CacheNode* const nodes = caches_->nodes_data();
    const bool pipeline = faults_ == nullptr && !route_cache_.empty();
    if (pipeline) {
      batch_routes_.clear();
      for (const DecodedRequest& d : batch) {
        batch_routes_.push_back(&RouteFor(d.requester, d.attach, d.server));
      }
    }
    // Far enough ahead to cover a cache-miss round trip, near enough that
    // the lines still sit in cache when the request replays.
    constexpr size_t kPrefetchAhead = 16;
    for (size_t j = 0; j < batch.size(); ++j) {
      if (!pipeline) {
        StepDecoded(batch[j], collect);
        continue;
      }
      const size_t p = j + kPrefetchAhead;
      if (p < batch.size()) {
        const DecodedRequest& ahead = batch[p];
        for (topology::NodeId v : batch_routes_[p]->nodes) {
          nodes[v].PrefetchProbe(ahead.object);
          // Under the plain-LRU rule a miss inserts (and usually evicts)
          // at every path node, so warm the victim entries too.
          if (scheme_plain_lru_) nodes[v].PrefetchLruVictim();
        }
      }
      StepDecoded(batch[j], collect, batch_routes_[j]);
    }
  }
  if (collect) metrics_.FlushBlock(block_stats_);
  return util::Status::Ok();
}

void Simulator::Step(const trace::Request& request, bool collect) {
  DecodedRequest decoded;
  decoded.object = request.object;
  decoded.size = catalog_->size(request.object);
  decoded.server = catalog_->server(request.object);
  decoded.requester = RequesterFor(request.client);
  decoded.attach = network_->ServerAttach(decoded.server);
  decoded.time = request.time;
  // One-shot block: FinishRequest's analytic exit records through the
  // open block, so a direct Step() opens one around the single exchange.
  block_stats_ = {};
  StepDecoded(decoded, collect);
  metrics_.FlushBlock(block_stats_);
}

topology::NodeId Simulator::RequesterFor(trace::ClientId client) {
  if (client >= kRequesterMemoMaxClients) [[unlikely]] {
    return network_->RequesterNode(client);
  }
  if (static_cast<size_t>(client) >= requester_cache_.size()) {
    requester_cache_.resize(static_cast<size_t>(client) + 1, -1);
  }
  topology::NodeId& slot = requester_cache_[static_cast<size_t>(client)];
  if (slot < 0) slot = network_->RequesterNode(client);
  return slot;
}

const Simulator::CachedRoute& Simulator::RouteFor(topology::NodeId from,
                                                  topology::NodeId attach,
                                                  trace::ServerId server) {
  CachedRoute* route;
  if (route_cache_.empty()) {
    route = &fallback_route_;
    route->filled = false;  // Always re-resolve without the dense table.
  } else {
    route = &route_cache_[static_cast<size_t>(from) *
                              static_cast<size_t>(network_->num_nodes()) +
                          static_cast<size_t>(attach)];
  }
  if (!route->filled) {
    route->nodes = network_->PathToServer(from, server);
    route->delays.clear();
    route->delays.reserve(route->nodes.size());
    for (size_t i = 0; i + 1 < route->nodes.size(); ++i) {
      route->delays.push_back(
          network_->LinkDelay(route->nodes[i], route->nodes[i + 1]));
    }
    // Left-to-right running sums: each entry extends the previous one by
    // a single addition, the same sequence the per-request loop performed,
    // so latencies computed from the prefix are bit-identical.
    route->delay_prefix.clear();
    route->delay_prefix.reserve(route->nodes.size());
    double acc = 0.0;
    route->delay_prefix.push_back(acc);
    for (double d : route->delays) {
      acc += d;
      route->delay_prefix.push_back(acc);
    }
    route->filled = true;
  }
  return *route;
}

uint32_t Simulator::Ascend(MessageContext& ctx) {
  // Version the client receives; downstream copies inherit it (a stale
  // serving copy propagates its stale version). All freshness checks use
  // ctx.now, the attempt time: after fault-plane retries it trails the
  // request's nominal time (and equals it otherwise).
  uint32_t served_version =
      updates_ == nullptr ? 0 : updates_->VersionAt(ctx.object, ctx.now);

  // The request message climbs the distribution tree toward the server.
  // At each hop: coherency admission first — under a protocol, expired or
  // invalidated copies are discarded and the request continues upstream;
  // under kNone a stale copy is served (and counted) — then, if the hop
  // cannot serve, the scheme's ascent handler piggybacks its state. A
  // hop whose cache process is down (fault plane) is transparent: it can
  // serve nothing and its piggyback entry is lost.
  const std::vector<topology::NodeId>& path = *ctx.path;
  NodeCounters* const counters = ctx.telemetry.node_counters;
  EventTrace* const trace = ctx.telemetry.trace;
  CacheNode* const nodes = caches_->nodes_data();
  const bool faults_active = faults_ != nullptr;

  // Fast path: no coherency schedule, no fault plane, no event sink and a
  // locally-deciding scheme — the per-hop work collapses to a cache probe
  // plus counters, with served_version pinned at 0 (no update schedule).
  // This is the exact subset of the general loop below those features
  // would leave untaken, so results are bit-identical.
  if (!faults_active && updates_ == nullptr && trace == nullptr &&
      !scheme_observes_ascent_ && queueing_ == nullptr && !tiered_ &&
      !sibling_on_) {
    for (size_t i = 0; i < path.size(); ++i) {
      const topology::NodeId node_id = path[i];
      if (nodes[node_id].Contains(ctx.object)) {
        ctx.response.hit_index = static_cast<int>(i);
        if (counters != nullptr) {
          ++counters[node_id].hits;
          counters[node_id].bytes_served += ctx.size;
        }
        return served_version;
      }
      if (counters != nullptr) ++counters[node_id].misses;
    }
    ctx.response.hit_index = -1;
    return served_version;
  }

  for (size_t i = 0; i < path.size(); ++i) {
    const topology::NodeId node_id = path[i];
    CacheNode* node = &nodes[node_id];
    const int32_t level = node_levels_[static_cast<size_t>(node_id)];
    const bool down = faults_active && arena_.node_down[i] != 0;
    // Event-driven replay: the hop's lookup (+ d-cache probe) is service
    // demand on the node's bounded queue. A full queue refuses the whole
    // request — it ends here, at the refusing hop. A down hop serves
    // nothing and charges nothing (its queue is not running).
    if (queueing_ != nullptr && !down && ascent_op_cost_ > 0.0) {
      const QueueingPlane::Admission adm =
          queueing_->AdmitOp(node_id, ctx.now, ascent_op_cost_,
                             options_.contention.node_queue_capacity);
      if (adm.shed) {
        ctx.response.shed = true;
        ctx.response.hit_index = -1;
        ctx.metrics->hops = static_cast<int>(i);
        if (counters != nullptr) {
          ++counters[node_id].sheds;
          if (adm.depth > counters[node_id].max_queue_depth) {
            counters[node_id].max_queue_depth = adm.depth;
          }
        }
        if (trace != nullptr) {
          EmitEvent(trace, ctx, TraceEventType::kShed, node_id, level,
                    static_cast<double>(adm.depth));
        }
        return served_version;
      }
      ctx.metrics->queue_wait += adm.wait;
      ctx.now += adm.wait + ascent_op_cost_;
      if (counters != nullptr &&
          adm.depth > counters[node_id].max_queue_depth) {
        counters[node_id].max_queue_depth = adm.depth;
      }
      if (trace != nullptr) {
        EmitEvent(trace, ctx, TraceEventType::kQueueDepth, node_id, level,
                  static_cast<double>(adm.depth));
      }
    }
    bool servable = !down && node->Contains(ctx.object);
    // Degraded-node fault class: the hop's disk is out. A tiered node
    // keeps serving what its RAM tier holds (coherency admission is
    // skipped — the copy metadata lives with the disk store, which the
    // node cannot touch); any copy only the disk holds is unavailable
    // (tiered or not), recorded as a disk-degraded decision. Contents are
    // preserved: recovery resumes with the pre-outage store.
    bool ram_only = false;
    if (servable && faults_active && arena_.disk_down[i] != 0) [[unlikely]] {
      if (node->tiered() && node->ram()->Contains(ctx.object)) {
        ram_only = true;
      } else {
        servable = false;
        ctx.RecordDiskDegraded(static_cast<int>(i));
      }
    }
    if (servable && !ram_only && updates_ != nullptr) {
      const CacheNode::CopyStamp* stamp = node->FindCopy(ctx.object);
      // Copies can only enter a cache through StampCopy'd insertions
      // within this run; treat a missing stamp (e.g. test-injected copy)
      // as fresh-at-time-0.
      const double fetch_time = stamp != nullptr ? stamp->fetch_time : 0.0;
      const uint32_t version = stamp != nullptr ? stamp->version : 0;
      const CoherencyProtocol protocol = options_.coherency.protocol;
      if (protocol == CoherencyProtocol::kTtl &&
          ctx.now - fetch_time > options_.coherency.ttl) {
        node->EraseObject(ctx.object);
        ++ctx.metrics->copies_expired;
        servable = false;
        if (counters != nullptr) ++counters[node_id].expirations;
        if (trace != nullptr) {
          EmitEvent(trace, ctx, TraceEventType::kExpired, node_id, level,
                    ctx.now - fetch_time);
        }
      } else {
        const uint32_t current = updates_->VersionAt(ctx.object, ctx.now);
        if (protocol == CoherencyProtocol::kInvalidation &&
            version < current) {
          node->EraseObject(ctx.object);
          ++ctx.metrics->copies_invalidated;
          servable = false;
          if (counters != nullptr) ++counters[node_id].invalidations;
          if (trace != nullptr) {
            EmitEvent(trace, ctx, TraceEventType::kInvalidated, node_id,
                      level, static_cast<double>(current - version));
          }
        } else {
          if (version < current) {
            ctx.metrics->stale_hit = true;
            if (counters != nullptr) ++counters[node_id].stale_serves;
            if (trace != nullptr) {
              EmitEvent(trace, ctx, TraceEventType::kStaleServe, node_id,
                        level, static_cast<double>(current - version));
            }
          }
          served_version = version;
        }
      }
    }
    if (servable) {
      // Which tier serves: the RAM front when it holds the object (or is
      // all the node has left during a disk outage), else the disk store
      // with promotion into RAM (inclusive: the disk copy stays).
      if (tiered_ && node->tiered()) [[unlikely]] {
        CacheNode::TierServe tier;
        if (ram_only) {
          tier.ram_hit = node->ram()->Touch(ctx.object);
        } else {
          tier = node->ServeTiered(ctx.object, ctx.size);
        }
        ctx.RecordTierServe(node_id, tier);
        ChargeTierServe(ctx, node_id, tier.ram_hit);
      }
      ctx.response.hit_index = static_cast<int>(i);
      if (counters != nullptr) {
        ++counters[node_id].hits;
        counters[node_id].bytes_served += ctx.size;
      }
      if (trace != nullptr) {
        EmitEvent(trace, ctx, TraceEventType::kHit, node_id, level,
                  static_cast<double>(i));
      }
      return served_version;
    }
    if (counters != nullptr) ++counters[node_id].misses;
    if (trace != nullptr) {
      EmitEvent(trace, ctx, TraceEventType::kMiss, node_id, level,
                static_cast<double>(i));
    }
    // Sibling cooperation: a live hop that missed locally probes its
    // siblings before letting the request ascend. On a sibling serve the
    // exchange ends here — hit_index is this hop, the descent below it is
    // identical to a local hit, and this hop contributes no piggyback
    // entry (exactly as if it had served), so scheme state stays
    // hop-aligned.
    if (sibling_on_ && !down &&
        TrySiblings(ctx, i, &served_version)) {
      return served_version;
    }
    if (scheme_observes_ascent_) {
      ctx.request.hop = static_cast<int>(i);
      if (faults_active) {
        // A down hop contributes no piggyback entry; an up hop's entry
        // may still be lost in transit. Either way the scheme sees
        // piggyback_lost for this hop only and applies its documented
        // fallback (DESIGN.md §10).
        const bool lost =
            down || faults_->AscentLoss(ctx.telemetry.request_index,
                                        static_cast<int>(i));
        if (lost) {
          ctx.request.piggyback_lost = true;
          ctx.RecordDegraded(static_cast<int>(i));
        }
        scheme_->OnAscend(ctx, static_cast<int>(i));
        ctx.request.piggyback_lost = false;
      } else {
        scheme_->OnAscend(ctx, static_cast<int>(i));
      }
    }
  }
  ctx.response.hit_index = -1;
  if (trace != nullptr) {
    // The origin serve is not node-scoped: node/level are -1.
    EmitEvent(trace, ctx, TraceEventType::kOrigin, -1, -1,
              static_cast<double>(path.size()) - 1.0 + server_link_hops_);
  }
  return served_version;
}

bool Simulator::TrySiblings(MessageContext& ctx, size_t hop,
                            uint32_t* served_version) {
  const std::vector<topology::NodeId>& path = *ctx.path;
  const topology::NodeId node_id = path[hop];
  const SiblingParams& sp = options_.sibling;
  if (sp.level >= 0 &&
      node_levels_[static_cast<size_t>(node_id)] != sp.level) {
    return false;
  }
  const std::vector<topology::NodeId>& siblings = network_->Siblings(node_id);
  if (siblings.empty()) return false;
  CacheNode* const nodes = caches_->nodes_data();
  const bool faults_active = faults_ != nullptr;
  int probes = 0;
  for (topology::NodeId sib : siblings) {
    if (sp.max_probes > 0 && probes >= sp.max_probes) break;
    // The probe ordinal (count of probes this request already sent,
    // across hops) keys the sibling-loss stream, so losses are
    // query-order independent.
    const int probe_ordinal = ctx.metrics->sibling_probes;
    ++probes;
    ctx.RecordSiblingProbe(static_cast<int>(hop), sib);
    scheme_->OnSiblingProbe(ctx, static_cast<int>(hop), sib);
    ctx.request.payload_bytes += sp.probe_bytes;
    if (queueing_ != nullptr && sp.probe_cost > 0.0) {
      // Probes are tiny control messages: they wait behind the sibling's
      // backlog and serve, but are never shed (capacity 0 = unbounded).
      const QueueingPlane::Admission adm =
          queueing_->AdmitOp(sib, ctx.now, sp.probe_cost, 0);
      ctx.metrics->queue_wait += adm.wait;
      ctx.now += adm.wait + sp.probe_cost;
    }
    if (faults_active) {
      // A crashed sibling answers nothing; a lost probe (or lost reply)
      // reads as a miss, and the probing hop falls back to the ascent.
      if (faults_->NodeDown(sib, ctx.now)) continue;
      if (faults_->SiblingLoss(ctx.telemetry.request_index, probe_ordinal)) {
        ctx.RecordDegraded(static_cast<int>(hop));
        continue;
      }
    }
    CacheNode* sib_node = &nodes[sib];
    if (!sib_node->Contains(ctx.object)) continue;
    bool ram_only = false;
    if (faults_active && faults_->DiskDown(sib, ctx.now)) {
      // Degraded sibling: only its RAM tier can answer. A disk-only copy
      // reads as a plain miss to the prober (no disk-degraded decision is
      // recorded — the degradation is off this request's path).
      if (sib_node->tiered() && sib_node->ram()->Contains(ctx.object)) {
        ram_only = true;
      } else {
        continue;
      }
    }
    uint32_t version = 0;
    if (updates_ != nullptr) {
      // Probes never mutate and never stale-serve: an expired or stale
      // sibling copy is skipped (not erased) — only a fresh copy crosses
      // the sibling leg.
      const CacheNode::CopyStamp* stamp = sib_node->FindCopy(ctx.object);
      const double fetch_time = stamp != nullptr ? stamp->fetch_time : 0.0;
      version = stamp != nullptr ? stamp->version : 0;
      if (options_.coherency.protocol == CoherencyProtocol::kTtl &&
          ctx.now - fetch_time > options_.coherency.ttl) {
        continue;
      }
      if (version < updates_->VersionAt(ctx.object, ctx.now)) continue;
    }
    if (tiered_ && sib_node->tiered()) {
      CacheNode::TierServe tier;
      if (ram_only) {
        tier.ram_hit = sib_node->ram()->Touch(ctx.object);
      } else {
        tier = sib_node->ServeTiered(ctx.object, ctx.size);
      }
      ctx.RecordTierServe(sib, tier);
      ChargeTierServe(ctx, sib, tier.ram_hit);
    }
    ctx.response.hit_index = static_cast<int>(hop);
    ctx.response.served_by_sibling = true;
    ctx.response.sibling = sib;
    // The hit reply carries the protocol header back across the leg.
    ctx.response.payload_bytes += sp.probe_bytes;
    ctx.RecordSiblingServe(static_cast<int>(hop), sib);
    *served_version = version;
    return true;
  }
  return false;
}

void Simulator::ChargeTierServe(MessageContext& ctx, topology::NodeId node_id,
                                bool ram_hit) {
  const double cost =
      ram_hit ? options_.tier.ram_hit_cost : options_.tier.disk_hit_cost;
  if (cost <= 0.0) return;
  if (queueing_ == nullptr) {
    ctx.tier_service += cost;
    return;
  }
  // The serve is already committed when the tier is consulted, so the
  // admission must not refuse (capacity 0 = unbounded): it waits behind
  // the node's backlog and serves.
  const QueueingPlane::Admission adm =
      queueing_->AdmitOp(node_id, ctx.now, cost, 0);
  ctx.metrics->queue_wait += adm.wait;
  ctx.now += adm.wait + cost;
  NodeCounters* const counters = ctx.telemetry.node_counters;
  if (counters != nullptr && adm.depth > counters[node_id].max_queue_depth) {
    counters[node_id].max_queue_depth = adm.depth;
  }
}

void Simulator::StepDecoded(const DecodedRequest& request, bool collect,
                            const CachedRoute* route_in,
                            StepOutcome* outcome) {
  const trace::ObjectId object = request.object;
  const uint64_t size = request.size;
  const topology::NodeId requester = request.requester;

  if (scheme_plain_lru_ && faults_ == nullptr && updates_ == nullptr &&
      trace_ == nullptr && queueing_ == nullptr && !tiered_ &&
      !sibling_on_) {
    // Fused plain-LRU exchange, entirely on local state: ascent probes,
    // the serve decision and the descent placements in one pass over the
    // path, skipping the MessageContext wiring the general pipeline
    // needs for its scheme/coherency/trace hooks. The per-node order of
    // operations, the latency arithmetic (prefix sums + memoized size
    // scale) and the accounting (statement-for-statement the
    // RecordPlacement/RecordPlacementRejected bodies with a null trace —
    // see message.h) are exactly the general path's, so results are
    // bit-identical; PipelineEquivalenceTest holds both paths to the
    // same golden results.
    const CachedRoute& route =
        route_in != nullptr
            ? *route_in
            : RouteFor(requester, request.attach, request.server);
    const std::vector<topology::NodeId>& path = route.nodes;
    const double* const delay_prefix = route.delay_prefix.data();
    ++step_index_;  // Keeps the trace-sampling key monotone.
    NodeCounters* const counters =
        collect ? metrics_.node_counters_data() : nullptr;
    CacheNode* const nodes = caches_->nodes_data();

    RequestMetrics rm;
    rm.size_bytes = size;
    const size_t path_len = path.size();
    int hit = -1;
    for (size_t i = 0; i < path_len; ++i) {
      const topology::NodeId node_id = path[i];
      if (nodes[node_id].Contains(object)) {
        hit = static_cast<int>(i);
        if (counters != nullptr) {
          ++counters[node_id].hits;
          counters[node_id].bytes_served += size;
        }
        break;
      }
      if (counters != nullptr) ++counters[node_id].misses;
    }
    double base_delay;
    if (hit >= 0) {
      base_delay = delay_prefix[hit];
      rm.hops = hit;
      rm.cache_hit = true;
      rm.read_bytes = size;
      nodes[path[static_cast<size_t>(hit)]].lru()->Touch(object);
    } else {
      base_delay = delay_prefix[path_len - 1] + server_link_delay_;
      rm.hops = static_cast<int>(path_len) - 1 + server_link_hops_;
    }
    rm.latency =
        base_delay * (object < size_scale_table_.size()
                          ? size_scale_table_[object]
                          : static_cast<double>(size) / mean_object_size_);
    const int first_missing =
        hit >= 0 ? hit - 1 : static_cast<int>(path_len) - 1;
    for (int i = first_missing; i >= 0; --i) {
      // InsertAbsent: every descent node's ascent probe just missed.
      const topology::NodeId node_id = path[static_cast<size_t>(i)];
      bool inserted = false;
      const std::vector<trace::ObjectId>& evicted =
          nodes[node_id].lru()->InsertAbsent(object, size, &inserted);
      if (inserted) {
        rm.write_bytes += size;
        ++rm.insertions;
        if (counters != nullptr) {
          NodeCounters& c = counters[node_id];
          ++c.placements;
          c.evictions += evicted.size();
          c.bytes_cached += size;
        }
      } else if (counters != nullptr) {
        ++counters[node_id].placements_rejected;
      }
    }
    FinishRequest(rm, collect, request.time + rm.latency, outcome);
    return;
  }

  RequestMetrics request_metrics;
  request_metrics.size_bytes = size;

  MessageContext& ctx = ctx_;

  // Anchor the run's clock at this request's arrival. Under the analytic
  // policy this is the trace timestamp; under the event-driven one the
  // heap already advanced the clock to the arrival event, so the Set is
  // an identity. Every time consumer below — TTL expiry, retry backoff,
  // fault-schedule evaluation, queueing — derives from this one source.
  engine_.clock().Set(request.time);

  // Path resolution. Without a fault plane the route comes from the dense
  // (requester, attach) cache — resolved once, reused for every request
  // on the pair; with one, an unroutable attempt (link outage / crash
  // cutting the path) times out and retries with deterministic
  // exponential backoff, so the attempt time `now` may trail the request
  // time, and reroutes produce paths the cache must not serve.
  double now = engine_.clock().now();
  bool reachable = true;
  // Left-to-right running sums of the route's delays (CachedRoute); null
  // on the fault-plane path, whose routes are per-attempt.
  const double* delay_prefix = nullptr;
  if (faults_ == nullptr) {
    const CachedRoute& route =
        route_in != nullptr
            ? *route_in
            : RouteFor(requester, request.attach, request.server);
    ctx.path = &route.nodes;
    ctx.link_delays = &route.delays;
    delay_prefix = route.delay_prefix.data();
  } else {
    const FaultScheduleConfig& fc = faults_->config();
    int attempt = 0;
    for (;;) {
      bool rerouted = false;
      reachable = faults_->ResolvePath(requester, request.server, now,
                                       &arena_.path, &rerouted);
      if (reachable) {
        request_metrics.rerouted = rerouted;
        break;
      }
      if (attempt >= fc.max_retries) break;
      now += fc.request_timeout + std::ldexp(fc.retry_backoff, attempt);
      ++attempt;
      ++request_metrics.retries;
    }
    arena_.link_delays.clear();
    arena_.link_delays.reserve(arena_.path.size());
    for (size_t i = 0; i + 1 < arena_.path.size(); ++i) {
      arena_.link_delays.push_back(
          network_->LinkDelay(arena_.path[i], arena_.path[i + 1]));
    }
    ctx.path = &arena_.path;
    ctx.link_delays = &arena_.link_delays;
  }
  const std::vector<topology::NodeId>& path = *ctx.path;
  const std::vector<double>& link_delays = *ctx.link_delays;

  ctx.object = object;
  ctx.size = size;
  ctx.size_scale = object < size_scale_table_.size()
                       ? size_scale_table_[object]
                       : static_cast<double>(size) / mean_object_size_;
  ctx.now = now;
  // No virtual server link under en-route (servers are co-located with
  // their attach node), so its cost is 0 under every cost model. Cost
  // fields stay untouched for cost-oblivious schemes — nothing reads them.
  if (scheme_uses_link_costs_) {
    ctx.server_link_cost =
        server_link_hops_ == 0
            ? 0.0
            : cost_model_.LinkCost(server_link_delay_, size,
                                   mean_object_size_);
  }
  ctx.metrics = &request_metrics;
  ctx.request = RequestMessage();
  ctx.response = ResponseMessage();
  ctx.tier_service = 0.0;

  // Telemetry wiring: per-node counters only while collecting (they must
  // mirror the aggregates' warm-up exclusion exactly); the trace keys its
  // per-request sampling decision off the replay position.
  const uint64_t request_index = step_index_++;
  ctx.telemetry.request_index = request_index;
  ctx.telemetry.node_counters = collect ? metrics_.node_counters_data()
                                        : nullptr;
  ctx.telemetry.trace = trace_ != nullptr && trace_->SampleRequest(request_index)
                            ? trace_.get()
                            : nullptr;
  NodeCounters* const counters = ctx.telemetry.node_counters;
  EventTrace* const trace = ctx.telemetry.trace;

  if (!reachable) {
    // Retries exhausted with no surviving route: the request fails. It
    // still pays the timeouts it sat through — latency covers the elapsed
    // attempts plus the final timeout — and is recorded (failed, zero
    // hops) so requests == served + failed with nothing silently dropped.
    request_metrics.failed = true;
    request_metrics.latency = (now - request.time) + options_.faults.request_timeout;
    if (counters != nullptr) {
      counters[requester].retries +=
          static_cast<uint64_t>(request_metrics.retries);
    }
    if (trace != nullptr) {
      const int32_t level = node_levels_[static_cast<size_t>(requester)];
      if (request_metrics.retries > 0) {
        EmitEvent(trace, ctx, TraceEventType::kRetry, requester, level,
                  static_cast<double>(request_metrics.retries));
      }
      EmitEvent(trace, ctx, TraceEventType::kRequestFailed, requester, level,
                static_cast<double>(request_metrics.retries));
    }
    FinishRequest(request_metrics, collect,
                  request.time + request_metrics.latency, outcome);
    return;
  }

  // Link costs are size-dependent (latency / weighted models): computed
  // per request from the cached delays, with the exact same cost-model
  // calls as an uncached replay. Skipped outright for schemes that never
  // read them (LRU, MODULO, LFU, STATIC).
  if (scheme_uses_link_costs_) {
    arena_.link_costs.clear();
    arena_.link_costs.reserve(link_delays.size());
    for (double delay : link_delays) {
      arena_.link_costs.push_back(cost_model_.LinkCost(delay, size,
                                                       mean_object_size_));
    }
    ctx.link_costs = &arena_.link_costs;
  }

  if (faults_ != nullptr) {
    // Apply pending cold restarts along the path, then flag hops whose
    // cache process is still down at the attempt time. Crashes are
    // charged to the crashed node; retries and reroutes to the
    // requester — the same localities NodeCounters reconciliation
    // asserts against the aggregates.
    arena_.node_down.assign(path.size(), 0);
    arena_.disk_down.assign(path.size(), 0);
    for (size_t i = 0; i < path.size(); ++i) {
      const topology::NodeId node_id = path[i];
      if (faults_->DiskDown(node_id, now)) arena_.disk_down[i] = 1;
      const int applied =
          faults_->ApplyCrashRestarts(caches_->node(node_id), now);
      if (applied > 0) {
        request_metrics.crashes_applied += applied;
        if (counters != nullptr) {
          counters[node_id].crashes += static_cast<uint64_t>(applied);
        }
        if (trace != nullptr) {
          EmitEvent(trace, ctx, TraceEventType::kNodeCrash, node_id,
                    node_levels_[static_cast<size_t>(node_id)],
                    static_cast<double>(applied));
        }
      }
      if (faults_->NodeDown(node_id, now)) arena_.node_down[i] = 1;
    }
    if (counters != nullptr) {
      counters[requester].retries +=
          static_cast<uint64_t>(request_metrics.retries);
      if (request_metrics.rerouted) ++counters[requester].reroutes;
    }
    if (trace != nullptr) {
      const int32_t level = node_levels_[static_cast<size_t>(requester)];
      if (request_metrics.retries > 0) {
        EmitEvent(trace, ctx, TraceEventType::kRetry, requester, level,
                  static_cast<double>(request_metrics.retries));
      }
      if (request_metrics.rerouted) {
        EmitEvent(trace, ctx, TraceEventType::kReroute, requester, level,
                  static_cast<double>(path.size()));
      }
    }
  }

  if (trace != nullptr) {
    EmitEvent(trace, ctx, TraceEventType::kRequest, requester,
              node_levels_[static_cast<size_t>(requester)],
              static_cast<double>(path.size()));
  }

  // --- Phase 1: the request message ascends to its serving point. -------
  // The attempt starts here: under contention ctx.now accrues queue waits
  // and service from this instant on.
  const double attempt_start = ctx.now;
  const uint32_t served_version = Ascend(ctx);
  if (ctx.response.shed) {
    // Refused by a full node queue on the ascent: the exchange ends at
    // the refusing hop — no serve, no descent, no placements. Its latency
    // is the time it spent getting there (queue waits and service so far,
    // plus any fault-plane retries); Ascend set rm.hops to the refusal
    // hop and charged the refusing node's shed counter.
    request_metrics.shed = true;
    request_metrics.latency = ctx.now - request.time;
    if (scheme_observes_ascent_) scheme_->OnAbort();
    FinishRequest(request_metrics, collect, ctx.now, outcome);
    return;
  }
  const int hit_index = ctx.response.hit_index;

  // Access latency and hops (paper cost model: link delay scaled by object
  // size; the client-to-first-cache cost is excluded).
  double base_delay = 0.0;
  int hops = 0;
  if (hit_index >= 0) {
    if (delay_prefix != nullptr) {
      base_delay = delay_prefix[hit_index];
    } else {
      for (int i = 0; i < hit_index; ++i) {
        base_delay += link_delays[static_cast<size_t>(i)];
      }
    }
    hops = hit_index;
    if (ctx.response.served_by_sibling) {
      // Sibling detour: the probe climbs to the probing hop's parent and
      // over to the sibling, the body comes back the same way — two hops
      // and two extra link delays on top of the ascent to the probing
      // hop. Sibling sets are nonempty only off the tree root, so the
      // parent (path[hit_index + 1]) always exists here.
      base_delay +=
          link_delays[static_cast<size_t>(hit_index)] +
          network_->LinkDelay(path[static_cast<size_t>(hit_index) + 1],
                              ctx.response.sibling);
      hops = hit_index + 2;
    }
    request_metrics.cache_hit = true;
    request_metrics.read_bytes = size;
  } else {
    if (delay_prefix != nullptr) {
      base_delay = delay_prefix[link_delays.size()];
    } else {
      for (double d : link_delays) base_delay += d;
    }
    base_delay += server_link_delay_;
    hops = static_cast<int>(link_delays.size()) + server_link_hops_;
  }
  request_metrics.latency = base_delay * ctx.size_scale;
  // Analytic tier service (RAM/disk hit cost) rides on top of the
  // propagation latency; under the event-driven policy it was charged on
  // the serving node's queue and arrives via ctx.now below instead.
  if (ctx.tier_service > 0.0) request_metrics.latency += ctx.tier_service;
  request_metrics.hops = hops;

  // --- Phase 2: the serving node decides, the response descends. --------
  if (scheme_plain_lru_ && faults_ == nullptr && queueing_ == nullptr) {
    // Inlined equivalent of LruScheme::OnServe/OnDescend (see
    // CachingScheme::plain_lru_replay): touch the serving cache, insert
    // at every hop below the serving point. Statement-for-statement the
    // handlers' unfaulted behavior, minus ~4 virtual calls per request.
    CacheNode* const nodes = caches_->nodes_data();
    if (hit_index >= 0) {
      // A sibling serve refreshes the *sibling's* store (the probing hop
      // is proxy-only and keeps nothing) — the inlined equivalent of
      // OnSiblingServe's default delegation to OnServe.
      const topology::NodeId serving_node =
          ctx.response.served_by_sibling
              ? ctx.response.sibling
              : path[static_cast<size_t>(hit_index)];
      nodes[serving_node].lru()->Touch(object);
    }
    for (int i = ctx.first_missing(); i >= 0; --i) {
      // InsertAbsent is sound here: every descent node sits below the
      // serving point, so its ascent probe just missed for this object.
      bool inserted = false;
      const std::vector<trace::ObjectId>& evicted =
          nodes[path[static_cast<size_t>(i)]].lru()->InsertAbsent(
              object, size, &inserted);
      if (inserted) {
        ctx.RecordPlacement(i, evicted);
      } else {
        ctx.RecordPlacementRejected(i);
      }
    }
  } else if (faults_ == nullptr && queueing_ == nullptr) {
    if (ctx.response.served_by_sibling) {
      scheme_->OnSiblingServe(ctx);
    } else {
      scheme_->OnServe(ctx);
    }
    for (int i = ctx.first_missing(); i >= 0; --i) {
      scheme_->OnDescend(ctx, i);
    }
  } else {
    if (ctx.response.served_by_sibling) {
      scheme_->OnSiblingServe(ctx);
    } else {
      scheme_->OnServe(ctx);
    }
    // The body of a sibling serve crosses the sibling leg before it
    // descends: one contended transfer keyed on the (sibling, probing
    // hop) pair.
    if (queueing_ != nullptr && ctx.response.served_by_sibling) {
      const QueueingPlane::Transfer t = queueing_->TransferOn(
          ctx.response.sibling, path[static_cast<size_t>(hit_index)],
          ctx.now, size, options_.contention.link_bandwidth);
      request_metrics.queue_wait += t.wait;
      ctx.now += t.wait + t.tx;
    }
    // A down hop cannot act on the descending decision, and an up hop's
    // decision entry may be lost in transit. The scheme still runs its
    // descent hook (penalty bookkeeping survives; see DESIGN.md §10) but
    // must not place or refresh under decision_lost. Under contention a
    // hop additionally charges the object body's link transfer, and a
    // full store queue drops the decision there the same way
    // (DescendContention).
    const bool faulted = faults_ != nullptr;
    for (int i = ctx.first_missing(); i >= 0; --i) {
      if (faulted) {
        const bool lost =
            arena_.node_down[static_cast<size_t>(i)] != 0 ||
            faults_->DescentLoss(request_index, i);
        if (lost) {
          ctx.response.decision_lost = true;
          ctx.RecordDegraded(i);
        } else if (arena_.disk_down[static_cast<size_t>(i)] != 0) {
          // Disk outage at the hop: it cannot commit a placement (the
          // RAM tier is inclusive in the disk store), so the decision is
          // lost here. Disjoint from the message-loss degradation above.
          ctx.response.decision_lost = true;
          ctx.RecordDiskDegraded(i);
        }
      }
      if (queueing_ != nullptr) DescendContention(i);
      scheme_->OnDescend(ctx, i);
      ctx.response.decision_lost = false;
    }
  }
  // Contended exchanges pay their accrued waits on top of the analytic
  // propagation latency (zero when every service knob is zero, so the
  // equivalence with the analytic policy is exact).
  if (queueing_ != nullptr) {
    request_metrics.latency += ctx.now - attempt_start;
  }
  request_metrics.request_msg_bytes = ctx.request.payload_bytes;
  request_metrics.response_msg_bytes = ctx.response.payload_bytes;

  // Stamp freshness metadata on the copies this request created. Copies
  // below the serving point inherit the served version; the serving copy
  // keeps its original stamp (hits do not revalidate). A down hop stored
  // nothing this request, so any copy it already holds keeps its stamp.
  if (updates_ != nullptr) {
    const int top = ctx.top_index();
    for (int i = 0; i <= top; ++i) {
      if (i == hit_index) continue;
      if (faults_ != nullptr &&
          arena_.node_down[static_cast<size_t>(i)] != 0) {
        continue;
      }
      CacheNode* node = caches_->node(path[static_cast<size_t>(i)]);
      if (node->Contains(object)) {
        node->StampCopy(object, ctx.now, served_version);
      }
    }
  }

  FinishRequest(request_metrics, collect,
                attempt_start + request_metrics.latency, outcome);
}

void Simulator::DescendContention(int i) {
  MessageContext& ctx = ctx_;
  const ContentionParams& cp = options_.contention;
  const std::vector<topology::NodeId>& path = *ctx.path;
  const int top = static_cast<int>(path.size()) - 1;
  // The object body crosses the link above hop i before the hop acts.
  // The topmost descent hop of an origin-served request receives it over
  // the virtual server link: transmission time only, uncontended (the
  // origin is not a node of the queueing plane).
  QueueingPlane::Transfer t;
  if (ctx.origin_served() && i == top) {
    if (cp.link_bandwidth > 0.0) {
      t.tx = static_cast<double>(ctx.size) / cp.link_bandwidth;
    }
  } else {
    t = queueing_->TransferOn(path[static_cast<size_t>(i) + 1],
                              path[static_cast<size_t>(i)], ctx.now,
                              ctx.size, cp.link_bandwidth);
  }
  ctx.metrics->queue_wait += t.wait;
  ctx.now += t.wait + t.tx;
  // Store-queue pre-check: a full queue refuses the placement decision at
  // this hop — the scheme sees decision_lost and must not place, so the
  // later RecordPlacement commit can never itself refuse. Skipped when
  // the decision is already lost (fault plane): nothing left to drop.
  if (!ctx.response.decision_lost && cp.store_cost > 0.0 &&
      cp.node_queue_capacity > 0) {
    const topology::NodeId node_id = path[static_cast<size_t>(i)];
    const uint32_t depth =
        queueing_->BacklogDepth(node_id, ctx.now, cp.store_cost);
    if (depth >= cp.node_queue_capacity) {
      ctx.response.decision_lost = true;
      ctx.RecordStoreShed(i, depth);
    }
  }
}

}  // namespace cascache::sim
