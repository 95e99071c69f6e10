#ifndef CASCACHE_SIM_SIMULATOR_H_
#define CASCACHE_SIM_SIMULATOR_H_

#include "schemes/scheme.h"
#include "sim/coherency.h"
#include "sim/cost_model.h"
#include "sim/event_engine.h"
#include "sim/event_trace.h"
#include "sim/fault_plane.h"
#include "sim/message.h"
#include "sim/metrics.h"
#include "sim/network.h"
#include "sim/queueing.h"
#include "sim/request_arena.h"
#include "trace/synthetic.h"

namespace cascache::sim {

/// Two-tier node knobs (RAM cache over a disk store, modeled on Traffic
/// Server's ram_cache over the disk vols). The disk tier is the node's
/// existing mode store at full capacity — Contains() still decides
/// hit/miss, so schemes and byte-hit accounting are untouched — and the
/// RAM tier is an inclusive LRU front (RAM ⊆ disk): a disk-tier serve
/// promotes the object into RAM, RAM evictions are demotions (the disk
/// copy stays), and a disk eviction drops any RAM copy. Inactive by
/// default = single-store nodes, bit-identical to the pre-tier replay.
struct TierParams {
  /// RAM tier capacity as a fraction of each node's capacity; 0 = off.
  double ram_fraction = 0.0;
  /// Absolute RAM tier capacity in bytes; overrides ram_fraction when set.
  uint64_t ram_capacity_bytes = 0;
  /// Service seconds of a RAM-tier serve. Analytic policy: added to the
  /// request's latency; event-driven: charged on the serving node's queue.
  double ram_hit_cost = 0.0;
  /// Service seconds of a disk-tier serve (promotion included).
  double disk_hit_cost = 0.0;

  bool active() const { return ram_fraction > 0.0 || ram_capacity_bytes > 0; }
  util::Status Validate() const;
};

/// ICP-style sibling cooperation (Squid's proxy-only sibling peering):
/// when the hop at `level` misses locally, it probes its tree siblings —
/// other children of the same parent, ascending node id — before the
/// request ascends further. A fresh sibling copy serves the request
/// (hit_index = the probing hop, response.served_by_sibling), the
/// descent below the probing hop proceeds exactly as for a local hit
/// there, and the probing node does NOT store the object (proxy-only),
/// so hop alignment of every scheme's piggyback state is preserved.
/// Hierarchical trees only; silently inactive when no node has siblings.
struct SiblingParams {
  bool enabled = false;
  /// Tree level whose nodes probe their siblings (-1 = every level).
  int level = -1;
  /// Max siblings probed per miss (ascending node id); 0 = all.
  int max_probes = 0;
  /// Protocol bytes per probe (request leg) and per hit reply (response).
  uint64_t probe_bytes = 16;
  /// Service seconds a probed sibling charges per probe (event-driven).
  double probe_cost = 0.0;

  bool active() const { return enabled; }
  util::Status Validate() const;
};

struct SimOptions {
  /// Leading fraction of the trace used to warm the caches; statistics are
  /// collected for the remainder only (the paper uses the first half).
  double warmup_fraction = 0.5;
  /// d-cache size as a multiple of the average number of objects the main
  /// cache can hold (paper default: 3x). Ignored for schemes without a
  /// d-cache.
  double dcache_ratio = 3.0;
  /// d-cache replacement policy (paper default: LFU; §2.4 also suggests
  /// LRU stacks).
  cache::DCachePolicy dcache_policy = cache::DCachePolicy::kLfu;
  cache::FrequencyEstimatorParams frequency;
  /// The generic cost the cost-aware schemes optimize (paper default:
  /// latency, i.e. delay proportional to object size).
  CostModelParams cost_model;
  /// Object update process + coherency protocol. Defaults to the paper's
  /// setting (static objects, no protocol, zero overhead).
  CoherencyParams coherency;
  /// Heterogeneous provisioning (hierarchical architecture): the capacity
  /// of a level-i cache is proportional to level_capacity_growth^i,
  /// normalized so the *total* cache budget equals
  /// num_nodes * capacity_bytes_per_node. 1.0 (default) = uniform, the
  /// paper's setting; > 1 concentrates capacity near the root, < 1 near
  /// the leaves. Ignored under en-route (all nodes are level 0).
  double level_capacity_growth = 1.0;
  /// Structured event tracing (observability layer). Disabled by
  /// default; when disabled the hot path pays one null check per request.
  EventTraceOptions trace;
  /// Deterministic fault injection (crashes, link outages, message
  /// faults, timeouts — see sim/fault_plane.h). Inactive by default; an
  /// inactive schedule leaves the replay bit-identical to a build without
  /// the fault plane, at the cost of one null check per request.
  FaultScheduleConfig faults;
  /// Contention model (sim/queueing.h): node service costs + bounded
  /// queues, link bandwidth, open-loop arrivals. Inactive by default,
  /// which keeps Run() on the analytic scheduling policy and the replay
  /// bit-identical to a build without the event engine; any nonzero knob
  /// switches Run() to the event-driven policy.
  ContentionParams contention;
  /// Two-tier nodes (RAM over disk). Inactive by default.
  TierParams tier;
  /// Sibling cooperation at one tree level. Inactive by default.
  SiblingParams sibling;
};

/// Wall-clock breakdown of the last Run(): cache (re)configuration +
/// coherency setup, the warm-up replay, and the measured replay.
/// Exported per sweep cell into BENCH_sweep.json.
struct RunPhaseTimes {
  double configure_seconds = 0.0;
  double warmup_seconds = 0.0;
  double measure_seconds = 0.0;
};

/// Trace-driven simulator: replays a request stream through the network
/// under one caching scheme, computing the paper's metrics. Time is owned
/// by one VirtualClock (sim/event_engine.h), driven by either of two
/// scheduling policies:
///
///  - analytic (default, the paper's setting): the trace loop anchors the
///    clock at each request's timestamp and latency is the closed-form
///    sum of size-scaled link delays — requests never interact, so the
///    event heap stays empty and the replay is a tight linear scan;
///  - event-driven (any ContentionParams knob set): arrivals and request
///    completions interleave on the EventEngine's time-ordered heap,
///    nodes charge per-operation service through bounded FIFO queues that
///    shed on overload (QueueingPlane), links serialize the descending
///    object bodies at finite bandwidth, and arrivals can be generated
///    open-loop on a rate ramp instead of read from the trace.
///
/// Both policies run the same exchange core below; the analytic policy is
/// the event-driven one with zero service demand everywhere, and a
/// zero-cost event-driven run reproduces the analytic results (the
/// equivalence tests pin this).
///
/// Each request is processed as an explicit two-phase message exchange
/// (see sim/message.h): a RequestMessage ascends the distribution path
/// hop by hop — per-hop coherency admission (TTL expiry, invalidation,
/// stale-serve accounting) runs at each cache before the scheme's
/// OnAscend handler — until a cache serves it or the origin is reached,
/// then a ResponseMessage descends through the scheme's OnServe/OnDescend
/// handlers, carrying the placement decision and penalty counter.
///
/// The simulator only reads the Network (immutable shared topology) and
/// mutates the CacheSet it was given, so simulators over disjoint cache
/// sets may run concurrently on one Network.
class Simulator {
 public:
  /// `network`, `caches` and `scheme` must outlive the simulator (all
  /// must be non-null, with one cache per network node). Caches are
  /// (re)configured by Run(). Invalid *options* (bad warmup fraction,
  /// inconsistent cost-model weights) do not abort here: they surface as
  /// an InvalidArgument from Run(), so CLI-supplied options fail cleanly.
  Simulator(const Network* network, CacheSet* caches,
            schemes::CachingScheme* scheme,
            const SimOptions& options = SimOptions());

  /// Single-threaded convenience: runs on the network's default cache
  /// set.
  Simulator(Network* network, schemes::CachingScheme* scheme,
            const SimOptions& options = SimOptions());

  /// Replays the full workload: resets caches, configures them for the
  /// given per-node capacity, runs the warm-up, then collects statistics.
  util::Status Run(const trace::Workload& workload,
                   uint64_t capacity_bytes_per_node);

  /// Span-based core of Run(): replays a borrowed request stream —
  /// in-RAM vector or read-only file mapping (trace/mapped_trace.h) —
  /// without copying it. `view.catalog` must be the catalog this
  /// simulator's Network was built over. The analytic replay proceeds
  /// in bounded chunks and invokes view.on_consumed (if set) after
  /// each, so mapped sources can release consumed pages; results are
  /// bit-identical to the unchunked replay.
  util::Status Run(const trace::WorkloadView& view,
                   uint64_t capacity_bytes_per_node);

  /// Processes a single request against the current cache state;
  /// `collect` controls whether metrics are recorded. Exposed for tests
  /// and custom drivers; Run() is the normal entry point. NOTE: coherency
  /// tracking requires the update schedule, which Run() builds; direct
  /// Step() drivers that want coherency must call EnableCoherency first.
  void Step(const trace::Request& request, bool collect);

  /// Replays requests [begin, end) of the trace, decoding them in blocks
  /// ahead of the replay loop (catalog sizes, origin servers, attach
  /// points). The span is seekable storage-agnostic — a heap vector and
  /// an mmap'd request region replay through the same loop. Per-request
  /// ordering and results are identical to calling Step() on each
  /// request in sequence; Run() uses this for both phases. A request
  /// naming an object outside the catalog stops the replay with
  /// InvalidArgument (requests before it have been replayed).
  util::Status ReplayRange(trace::RequestSpan requests, size_t begin,
                           size_t end, bool collect);

  /// Installs the update schedule for direct Step() drivers (Run() does
  /// this automatically from the workload catalog).
  util::Status EnableCoherency(uint32_t num_objects);

  const MetricsCollector& metrics() const { return metrics_; }
  const Network* network() const { return network_; }
  CacheSet* caches() { return caches_; }

  /// Event sink; nullptr unless options.trace.enabled.
  EventTrace* event_trace() { return trace_.get(); }
  const EventTrace* event_trace() const { return trace_.get(); }

  /// Fault-injection layer; nullptr unless options.faults.active().
  FaultPlane* fault_plane() { return faults_.get(); }
  const FaultPlane* fault_plane() const { return faults_.get(); }

  /// Phase breakdown of the last Run() (zeros before the first).
  const RunPhaseTimes& phase_times() const { return phase_times_; }

  /// The run's time source. Both scheduling policies derive ctx.now —
  /// and through it every TTL check, retry backoff and fault-schedule
  /// evaluation — from this clock.
  const VirtualClock& virtual_clock() const { return engine_.clock(); }

 private:
  /// StepDecoded result when the event-driven replay needs the exchange
  /// back instead of recording it: the metrics travel to the request's
  /// completion event, where they are recorded in completion order.
  struct StepOutcome {
    RequestMetrics metrics;
    double completion_time = 0.0;
  };

  /// An in-flight request between its arrival and completion events.
  struct PendingCompletion {
    RequestMetrics metrics;
    bool collect = false;
  };
  /// A precomputed client-path: the node sequence from a requester to a
  /// server attach node plus its per-link delays, resolved once and
  /// reused for every request on that (requester, attach) pair. Delays
  /// are request-invariant; link *costs* are size-dependent and stay
  /// per-request (RequestArena::link_costs).
  struct CachedRoute {
    std::vector<topology::NodeId> nodes;
    std::vector<double> delays;  ///< nodes.size() - 1 entries.
    /// Running sums of `delays`, accumulated left to right in the exact
    /// addition order of the historical per-request latency loop (so the
    /// precomputed sums are bit-identical to summing on every request):
    /// delay_prefix[i] == delays[0] + ... + delays[i-1]; nodes.size()
    /// entries, delay_prefix[0] == 0.
    std::vector<double> delay_prefix;
    bool filled = false;
  };

  /// Drives the request message up the path: per-hop coherency admission
  /// then the scheme's ascent hook, stopping at the serving cache. All
  /// timing uses ctx.now (== the attempt time, which trails the request
  /// time after fault-plane retries). Returns the serving version for
  /// freshness stamping.
  uint32_t Ascend(MessageContext& ctx);

  /// The decoded-request hot path shared by Step(), ReplayRange() and
  /// ReplayContended(). `route`, when non-null, is the request's
  /// already-resolved cached route (ReplayRange's pipelined prefetch
  /// stage resolves it one request ahead); null means resolve here. Only
  /// meaningful without a fault plane. `outcome`, when non-null, receives
  /// the exchange instead of the metrics collector (event-driven replay).
  void StepDecoded(const DecodedRequest& request, bool collect,
                   const CachedRoute* route = nullptr,
                   StepOutcome* outcome = nullptr);

  /// Terminal of every StepDecoded exit: hands the exchange to `outcome`
  /// (event-driven replay) or streams it into the open block accumulator.
  /// Every analytic driver (ReplayRange, Step) opens a block before
  /// collecting, so the collecting exit is a single inline RecordInBlock
  /// — in the class body because an out-of-line call (or a second,
  /// fallback record body) here costs a measurable fraction of the fused
  /// plain-LRU request budget.
  void FinishRequest(const RequestMetrics& rm, bool collect,
                     double completion_time, StepOutcome* outcome) {
    if (outcome != nullptr) {
      outcome->metrics = rm;
      outcome->completion_time = completion_time;
      return;
    }
    if (collect) metrics_.RecordInBlock(rm, &block_stats_);
  }

  /// Event-driven replay of the whole trace (Run() dispatches here when
  /// contention is active): arrivals and completions interleave on the
  /// engine's heap; requests before `warmup_count` replay with collection
  /// off. One loop spans both phases so warm-up completions that land
  /// inside the measured window drain in time order instead of being
  /// force-drained at the phase boundary.
  /// Rejects out-of-catalog object ids like ReplayRange.
  util::Status ReplayContended(trace::RequestSpan requests,
                               size_t warmup_count);

  /// Arrival time of the next open-loop request: the (monotonized) trace
  /// timestamp by default, or the ramp process
  /// rate(t) = arrival_rate * (1 + arrival_ramp * t) when a rate is set.
  double NextArrivalTime(double trace_time);

  /// Event-driven descent charges for hop `i`: the object body's link
  /// transfer into the hop, then the store-queue pre-check — a full queue
  /// drops the placement decision there (decision_lost + RecordStoreShed).
  void DescendContention(int i);

  /// Sibling leg of Ascend at path index `hop` (which just missed
  /// locally): probes the hop's siblings in ascending node id, bounded by
  /// max_probes, and serves from the first fresh copy. Probes never
  /// mutate sibling stores (an expired / stale sibling copy is skipped,
  /// not erased). Returns true when a sibling served — response.hit_index
  /// is `hop` with served_by_sibling / sibling set — and writes the
  /// serving copy's version to `*served_version`. Kept out of line so the
  /// sibling-off ascent loop stays compact (one never-taken branch).
  __attribute__((noinline)) bool TrySiblings(MessageContext& ctx, size_t hop,
                                             uint32_t* served_version);

  /// Charges the serving tier's service seconds at `node_id`: analytic
  /// replay → ctx.tier_service (the simulator adds it to the request
  /// latency); event-driven → service demand on the node's queue
  /// (non-shedding: a serve already under way is never refused).
  void ChargeTierServe(MessageContext& ctx, topology::NodeId node_id,
                       bool ram_hit);

  /// Route (path + delays) for a requester/attach pair: the dense cache
  /// entry when enabled (filled on first use), else a per-request
  /// resolution into fallback_route_.
  const CachedRoute& RouteFor(topology::NodeId from, topology::NodeId attach,
                              trace::ServerId server);

  /// Memoized Network::RequesterNode (same deterministic assignment,
  /// computed once per client). Client ids past a bound skip the memo
  /// and hash per call, so a hostile id cannot size it.
  topology::NodeId RequesterFor(trace::ClientId client);

  const Network* network_;
  CacheSet* caches_;
  schemes::CachingScheme* scheme_;
  SimOptions options_;
  CostModel cost_model_;
  /// Deferred SimOptions validation result, returned by Run() (bad
  /// options must not abort construction — satellite of the pipeline
  /// refactor).
  util::Status init_status_;
  /// Per-request invariants of the immutable network, hoisted out of the
  /// Step hot path.
  const trace::ObjectCatalog* catalog_;
  double mean_object_size_;
  double server_link_delay_;
  int server_link_hops_;
  /// Cached scheme->observes_ascent(): skips the per-hop ascent dispatch
  /// for the locally-deciding schemes.
  bool scheme_observes_ascent_;
  /// Cached scheme->uses_link_costs(): the cost-oblivious schemes never
  /// read ctx.link_costs, so the per-request cost-model evaluation is
  /// skipped entirely for them.
  bool scheme_uses_link_costs_;
  /// Cached scheme->plain_lru_replay(): the unfaulted replay inlines the
  /// plain-LRU serve/descend rule instead of the virtual dispatch.
  bool scheme_plain_lru_;
  /// Cached options.tier.active(): nodes run a RAM tier this run. Off
  /// keeps the fused fast paths eligible and the replay bit-identical to
  /// the pre-tier pipeline.
  bool tiered_ = false;
  /// Sibling cooperation is live: options.sibling.enabled AND the
  /// topology actually has sibling sets (hierarchical, branching > 1).
  bool sibling_on_ = false;
  /// Present iff coherency tracking is active for this run.
  std::unique_ptr<UpdateSchedule> updates_;
  MetricsCollector metrics_;
  /// Tree depth per NodeId, hoisted for trace records and per-level
  /// rollups (all zeros under en-route).
  std::vector<int> node_levels_;
  /// Present iff options.trace.enabled.
  std::unique_ptr<EventTrace> trace_;
  /// Present iff options.faults.active(); nullptr keeps the unfaulted
  /// replay on the historical hot path (one pointer test per request).
  std::unique_ptr<FaultPlane> faults_;
  /// Present iff options.contention.active(); nullptr keeps the analytic
  /// replay on the historical hot path (one pointer test per request).
  std::unique_ptr<QueueingPlane> queueing_;
  /// The open block FinishRequest streams collected exchanges into: the
  /// order-sensitive stats still land on the collector per request, the
  /// integer counters accumulate here and flush once per replayed range.
  /// The analytic drivers (ReplayRange, Step) zero it before collecting
  /// and FlushBlock it after.
  MetricsCollector::BlockStats block_stats_;
  RunPhaseTimes phase_times_;
  /// Index of the next Step()'ed request: the trace position under Run()
  /// (reset there), a monotone counter for direct Step() drivers. Keys
  /// the deterministic trace sampler.
  uint64_t step_index_ = 0;
  /// Per-block route pointers for ReplayRange's pipelined prefetch
  /// (parallel to RequestArena::batch; dense-table entries are stable).
  std::vector<const CachedRoute*> batch_routes_;
  /// Memoized size / mean-object-size ratio per ObjectId — the exact
  /// division the per-request path performed, computed once per object
  /// (Run() fills it from the catalog; empty for direct Step() drivers,
  /// which fall back to dividing inline).
  std::vector<double> size_scale_table_;
  /// Dense (requester * num_nodes + attach) route cache, filled lazily
  /// from the routing table. Empty (disabled) when num_nodes exceeds
  /// kRouteCacheMaxNodes — the n^2 table would dominate memory — in which
  /// case fallback_route_ is resolved per request.
  std::vector<CachedRoute> route_cache_;
  CachedRoute fallback_route_;
  /// Memoized Network::RequesterNode keyed by client id (-1 = unfilled):
  /// the hash assignment is deterministic per client, so the decode loop
  /// pays it once per client instead of once per request. Bounded by
  /// kRequesterMemoMaxClients (simulator.cc).
  std::vector<topology::NodeId> requester_cache_;
  /// Per-request scratch (link costs, fault flags, decode blocks); reset,
  /// never reallocated, between requests.
  RequestArena arena_;
  /// Reused exchange context; the invariant fields (cache plane, server
  /// link delay) are wired in the constructor. The path/delay pointers are
  /// repointed per request at the cached route (or the arena's resolved
  /// path under the fault plane).
  MessageContext ctx_;
  // --- Event-driven replay state, declared last: the analytic hot path
  // --- never touches it (beyond the queueing_ gate above), so keeping it
  // --- out of the middle of the object leaves the hot members' cache-line
  // --- packing as it was before the event engine landed.
  /// The run's clock plus the event heap the contended replay schedules
  /// on. Always present; under the analytic policy the heap stays empty
  /// and only the clock is used.
  EventEngine engine_;
  /// Ascent service demand per visited node: lookup cost plus the d-cache
  /// probe cost for schemes that keep one (cached at construction).
  double ascent_op_cost_ = 0.0;
  /// Open-loop arrival process state (ReplayContended / NextArrivalTime):
  /// the last scheduled arrival time.
  double arrival_clock_ = 0.0;
  /// In-flight exchanges keyed by completion-event payload (slot index),
  /// with a free list so the pool stops growing at the peak concurrency.
  std::vector<PendingCompletion> pending_;
  std::vector<uint64_t> pending_free_;
};

}  // namespace cascache::sim

#endif  // CASCACHE_SIM_SIMULATOR_H_
