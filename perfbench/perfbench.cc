// perfbench: the measuring program of the repository benchmark
// (perfbench/run.py builds and drives it; see perfbench/README.md).
//
//   perfbench --workload=fig9_sweep --seed=20030305 --seconds=30
//             --work-dir=.bench_build/perfbench/work [--trace]
//
// One workload per process: peak RSS (VmHWM) only grows, so a process
// that ran two workloads would report the larger one for both. Every
// cell replays on the calling thread through ExperimentRunner::RunOne,
// i.e. one replay worker, so host time measures the simulator rather
// than the scheduler.
//
// Untraced, the program cycles over the workload's cells until --seconds
// have passed, at least one full pass, and sets the workload up again
// between cells (setup_s is the median of those set-ups). Every cell
// result is checked: the reconciliation identities, and a digest of its
// simulated statistics that must repeat exactly on every re-run of the
// cell, across set-ups too. The replay rate of a cell is the median of
// its re-runs.
//
// With --trace, the program records spans around its calls into each
// layer, alternates untraced and traced passes to report the tracing
// overhead, and runs the layer drivers (layers.cc).
//
// The last line on stdout is one JSON object with the metrics, the
// per-cell digests and the host-speed probe; run.py turns it into the
// benchmark's result line.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "layers.h"
#include "sim/experiment.h"
#include "spans.h"
#include "trace/mapped_trace.h"
#include "trace/synthetic.h"
#include "util/flags.h"

namespace perfbench {
namespace {

using cascache::schemes::SchemeKind;
using cascache::schemes::SchemeSpec;
using cascache::sim::ExperimentConfig;
using cascache::sim::ExperimentRunner;
using cascache::sim::MetricsSummary;
using cascache::sim::RunResult;
using cascache::util::Status;
using cascache::util::StatusOr;

constexpr uint64_t kDefaultSeed = 20030305;

/// A benchmark workload: one experiment configuration, how its trace
/// reaches the replay, and the scheme it pits against LRU.
struct Workload {
  ExperimentConfig config;
  /// Stream-generate the trace to a v2 file and replay it mapped, with
  /// consumed pages released, instead of generating it in RAM.
  bool mapped = false;
  /// Fewest set-ups an untraced run times; setup_s is their median.
  int min_setups = 5;
  SchemeKind challenger = SchemeKind::kCoordinated;
};

/// The paper's Figure 9 sweep (bench::PaperConfig(kHierarchical)): a
/// 3-ary depth-4 tree, static Zipf 0.8 over 20k objects, 400k requests,
/// the four paper schemes at five cache sizes, analytic policy.
Workload Fig9Sweep(uint64_t seed) {
  Workload w;
  ExperimentConfig& c = w.config;
  c.network.architecture = cascache::sim::Architecture::kHierarchical;
  c.workload.num_objects = 20'000;
  c.workload.num_requests = 400'000;
  c.workload.num_clients = 1'000;
  c.workload.num_servers = 200;
  c.workload.zipf_theta = 0.8;
  c.workload.seed = seed;
  c.cache_fractions = {0.001, 0.003, 0.01, 0.03, 0.10};
  c.schemes = {{.kind = SchemeKind::kLru},
               {.kind = SchemeKind::kModulo, .modulo_radius = 4},
               {.kind = SchemeKind::kLncr},
               {.kind = SchemeKind::kCoordinated}};
  return w;
}

/// The Tiers en-route topology (100 nodes) under a 10^6-object catalog
/// whose popularity rotates; the 2M-request trace is streamed to a v2
/// file and replayed mapped with page release. LRU and MODULO(4) at 1%.
Workload EnrouteDriftMapped(uint64_t seed) {
  Workload w;
  ExperimentConfig& c = w.config;
  c.network.architecture = cascache::sim::Architecture::kEnRoute;
  c.workload.num_objects = 1'000'000;
  c.workload.num_requests = 2'000'000;
  c.workload.num_clients = 2'000;
  c.workload.num_servers = 500;
  c.workload.zipf_theta = 0.8;
  c.workload.model.drift_mode = cascache::trace::DriftMode::kRotate;
  c.workload.model.drift_half_life_s = 3600.0;
  c.workload.seed = seed;
  c.cache_fractions = {0.01};
  c.schemes = {{.kind = SchemeKind::kLru},
               {.kind = SchemeKind::kModulo, .modulo_radius = 4}};
  c.release_trace_pages = true;
  w.mapped = true;
  w.challenger = SchemeKind::kModulo;
  return w;
}

/// The Figure 9 tree under the event-driven policy: per-operation node
/// service costs, bounded queues and finite links, with open-loop
/// arrivals ramping through the root's saturation point. Every node has
/// an inclusive RAM tier and the leaves probe their siblings. LRU and
/// Coordinated at 1% over a 1M-request trace.
Workload HierOverload(uint64_t seed) {
  Workload w = Fig9Sweep(seed);
  ExperimentConfig& c = w.config;
  c.workload.num_requests = 1'000'000;
  c.cache_fractions = {0.01};
  c.schemes = {{.kind = SchemeKind::kLru},
               {.kind = SchemeKind::kCoordinated}};
  cascache::sim::ContentionParams& q = c.sim.contention;
  q.lookup_cost = 5e-5;
  q.dcache_cost = 1e-5;
  q.store_cost = 4e-5;
  q.node_queue_capacity = 32;
  q.link_bandwidth = 1e9;
  q.arrival_rate = 3'000.0;
  q.arrival_ramp = 0.1;
  c.sim.tier.ram_fraction = 0.1;
  c.sim.tier.ram_hit_cost = 2e-6;
  c.sim.tier.disk_hit_cost = 2e-5;
  c.sim.sibling.enabled = true;
  c.sim.sibling.level = 0;
  c.sim.sibling.probe_cost = 2e-6;
  return w;
}

StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  if (name == "fig9_sweep") {
    w = Fig9Sweep(seed);
  } else if (name == "enroute_drift_mapped") {
    w = EnrouteDriftMapped(seed);
  } else if (name == "hier_overload") {
    w = HierOverload(seed);
  } else {
    return Status::InvalidArgument(
        "unknown workload '" + name +
        "' (expected fig9_sweep|enroute_drift_mapped|hier_overload)");
  }
  w.config.jobs = 1;
  return w;
}

// --- Set-up -----------------------------------------------------------------

/// Everything before the first replay. Untraced (log == nullptr) it is
/// exactly the user's path: Create(), or GenerateWorkloadToFile() then
/// CreateFromTrace(). Traced, the layers are first called one by one
/// under their own spans, then the runner is created as untraced.
StatusOr<std::unique_ptr<ExperimentRunner>> SetUp(const Workload& w,
                                                  const std::string& path,
                                                  SpanLog* log) {
  ScopedSpan setup(log, "setup");
  const ExperimentConfig& c = w.config;
  if (log != nullptr) {
    cascache::trace::Workload in_ram;
    std::unique_ptr<cascache::trace::MappedTrace> mapped;
    const cascache::trace::ObjectCatalog* catalog = nullptr;
    {
      ScopedSpan span(log, "trace.generate");
      if (w.mapped) {
        CASCACHE_RETURN_IF_ERROR(
            cascache::trace::GenerateWorkloadToFile(c.workload, path));
      } else {
        CASCACHE_ASSIGN_OR_RETURN(in_ram,
                                  cascache::trace::GenerateWorkload(c.workload));
        catalog = &in_ram.catalog;
      }
    }
    if (w.mapped) {
      ScopedSpan span(log, "trace.map_open");
      CASCACHE_ASSIGN_OR_RETURN(mapped,
                                cascache::trace::MappedTrace::Open(path));
      catalog = &mapped->catalog();
    }
    {
      ScopedSpan span(log, "topology.network_build");
      CASCACHE_ASSIGN_OR_RETURN(
          std::unique_ptr<cascache::sim::Network> network,
          cascache::sim::Network::Build(c.network, catalog));
    }
    ScopedSpan span(log, "sim.runner_create");
    if (w.mapped) return ExperimentRunner::CreateFromTrace(c, path);
    return ExperimentRunner::Create(c);
  }
  if (w.mapped) {
    CASCACHE_RETURN_IF_ERROR(
        cascache::trace::GenerateWorkloadToFile(c.workload, path));
    return ExperimentRunner::CreateFromTrace(c, path);
  }
  return ExperimentRunner::Create(c);
}

// --- Output check -----------------------------------------------------------

/// FNV-1a over the bit patterns of a cell's simulated statistics: every
/// MetricsSummary field and every per-node counter. Host timings are not
/// part of it.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

uint64_t DigestOf(const RunResult& r) {
  Digest d;
  const MetricsSummary& m = r.metrics;
  for (const double v :
       {m.avg_latency, m.avg_response_ratio, m.byte_hit_ratio, m.hit_ratio,
        m.avg_traffic_byte_hops, m.avg_hops, m.avg_load_bytes,
        m.read_load_share, m.avg_write_bytes, m.stale_hit_ratio,
        m.avg_request_msg_bytes, m.avg_response_msg_bytes,
        m.avg_message_bytes, m.avg_queue_wait}) {
    d.Add(v);
  }
  for (const uint64_t v :
       {m.requests, m.total_bytes_requested, m.bytes_from_caches,
        m.copies_expired, m.copies_invalidated, m.cache_hits, m.stale_hits,
        m.insertions, m.bytes_written, m.retries, m.failed_requests,
        m.reroutes, m.crashes_applied, m.degraded_decisions, m.shed_requests,
        m.shed_placements, m.served_requests, m.bytes_read, m.ram_hits,
        m.disk_hits, m.promotions, m.demotions, m.sibling_probes,
        m.sibling_hits, m.disk_degraded, r.capacity_bytes}) {
    d.Add(v);
  }
  for (const cascache::sim::NodeUsage& u : r.per_node) {
    const cascache::sim::NodeCounters& n = u.counters;
    for (const uint64_t v :
         {n.hits, n.misses, n.evictions, n.placements, n.placements_rejected,
          n.expirations, n.invalidations, n.stale_serves, n.dcache_hits,
          n.bytes_served, n.bytes_cached, n.crashes, n.retries, n.reroutes,
          n.degraded, n.sheds, n.store_sheds, n.max_queue_depth, n.ram_hits,
          n.disk_hits, n.promotions, n.demotions, n.sibling_probes,
          n.sibling_serves, n.disk_degraded}) {
      d.Add(v);
    }
  }
  return d.value();
}

/// The reconciliation identities between a cell's aggregates and its
/// per-node counters; empty when they hold.
std::string CheckIdentities(const RunResult& r, bool all_tiered) {
  const MetricsSummary& m = r.metrics;
  uint64_t hits = 0, sheds = 0, bytes_served = 0;
  for (const cascache::sim::NodeUsage& u : r.per_node) {
    hits += u.counters.hits;
    sheds += u.counters.sheds;
    bytes_served += u.counters.bytes_served;
  }
  if (hits != m.cache_hits) return "sum of per-node hits != cache_hits";
  if (sheds != m.shed_requests) return "sum of per-node sheds != shed_requests";
  if (bytes_served != m.bytes_read) {
    return "sum of per-node bytes_served != bytes_read";
  }
  if (m.served_requests != m.requests - m.failed_requests - m.shed_requests) {
    return "served_requests != requests - failed - shed";
  }
  if (all_tiered && m.ram_hits + m.disk_hits != m.cache_hits) {
    return "ram_hits + disk_hits != cache_hits";
  }
  return "";
}

// --- Cells ------------------------------------------------------------------

struct Cell {
  SchemeSpec spec;
  double fraction = 0.0;
  std::string label;
  /// First successful result: its simulated statistics are the cell's.
  RunResult first;
  bool have_first = false;
  uint64_t digest = 0;
  /// Replay seconds (RunResult::wall_seconds) of every untraced run.
  std::vector<double> seconds;
  int runs = 0;
  int failures = 0;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

class Bench {
 public:
  Bench(const Workload& w, ExperimentRunner* runner)
      : workload_(w), runner_(runner) {
    for (const double fraction : w.config.cache_fractions) {
      for (const SchemeSpec& spec : w.config.schemes) {
        Cell cell;
        cell.spec = spec;
        cell.fraction = fraction;
        char label[64];
        std::snprintf(label, sizeof(label), "%s@%g", spec.Label().c_str(),
                      fraction);
        cell.label = label;
        cells_.push_back(cell);
      }
    }
  }

  /// Points the cells at a freshly set-up runner of the same workload.
  void set_runner(ExperimentRunner* runner) { runner_ = runner; }

  /// Runs one cell once and checks it. Returns the result (for spans and
  /// phase times) or nullptr when the cell failed.
  const RunResult* Run(Cell* cell, bool keep_seconds) {
    ++cell->runs;
    StatusOr<RunResult> result = runner_->RunOne(cell->spec, cell->fraction);
    if (!result.ok()) return Fail(cell, result.status().ToString());
    last_ = std::move(result).value();
    const bool all_tiered = workload_.config.sim.tier.active();
    if (const std::string broken = CheckIdentities(last_, all_tiered);
        !broken.empty()) {
      return Fail(cell, broken);
    }
    const uint64_t digest = DigestOf(last_);
    if (!cell->have_first) {
      cell->first = last_;
      cell->digest = digest;
      cell->have_first = true;
    } else if (digest != cell->digest) {
      return Fail(cell, "simulated statistics differ between re-runs");
    }
    if (keep_seconds) cell->seconds.push_back(last_.wall_seconds);
    return &last_;
  }

  std::vector<Cell>& cells() { return cells_; }
  const std::vector<Cell>& cells() const { return cells_; }
  const Workload& workload() const { return workload_; }
  /// Cells run at least once, and those of them with a failed run.
  int attempted() const {
    return static_cast<int>(std::count_if(
        cells_.begin(), cells_.end(), [](const Cell& c) { return c.runs > 0; }));
  }
  int failed() const {
    return static_cast<int>(
        std::count_if(cells_.begin(), cells_.end(),
                      [](const Cell& c) { return c.failures > 0; }));
  }
  const std::vector<std::string>& errors() const { return errors_; }
  uint64_t requests_per_cell() const {
    return runner_->view().requests.size();
  }

  /// Requests replayed across the cells of `scheme` (all cells when
  /// unset) ÷ the summed median replay seconds of those cells.
  double Rate(std::optional<SchemeKind> scheme) const {
    double seconds = 0.0;
    uint64_t requests = 0;
    for (const Cell& cell : cells_) {
      if (cell.seconds.empty() || (scheme && cell.spec.kind != *scheme)) {
        continue;
      }
      seconds += Median(cell.seconds);
      requests += requests_per_cell();
    }
    return seconds > 0.0 ? static_cast<double>(requests) / seconds : 0.0;
  }

  /// Pooled simulated statistics of one scheme's cells.
  struct Pooled {
    uint64_t requests = 0, bytes_requested = 0, bytes_from_caches = 0;
    uint64_t insertions = 0, shed = 0;
    double latency_sum = 0.0;
  };
  Pooled Pool(SchemeKind kind) const {
    Pooled p;
    for (const Cell& cell : cells_) {
      if (cell.spec.kind != kind || !cell.have_first) continue;
      const MetricsSummary& m = cell.first.metrics;
      p.requests += m.requests;
      p.bytes_requested += m.total_bytes_requested;
      p.bytes_from_caches += m.bytes_from_caches;
      p.insertions += m.insertions;
      p.shed += m.shed_requests;
      p.latency_sum += m.avg_latency * static_cast<double>(m.requests);
    }
    return p;
  }

 private:
  const RunResult* Fail(Cell* cell, const std::string& why) {
    ++cell->failures;
    if (errors_.size() < 20) errors_.push_back(cell->label + ": " + why);
    return nullptr;
  }

  const Workload& workload_;
  ExperimentRunner* runner_;
  std::vector<Cell> cells_;
  RunResult last_;
  std::vector<std::string> errors_;
};

double Ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }
double ByteHit(const Bench::Pooled& p) {
  return Ratio(static_cast<double>(p.bytes_from_caches),
               static_cast<double>(p.bytes_requested));
}
double MeanLatency(const Bench::Pooled& p) {
  return Ratio(p.latency_sum, static_cast<double>(p.requests));
}

// --- Host facts -------------------------------------------------------------

volatile uint64_t g_probe_sink = 0;

/// Host-speed probes: fixed loops in the benchmark's own code whose time
/// moves only with the host, timed at the start and end of a run so host
/// drift can be told apart from a program change. Diagnostics, never
/// metrics. The ALU probe is a dependent xorshift chain (core clock);
/// the memory probe does dependent random reads over a 16 MiB table, the
/// access pattern of the replay's slot tables, which also shows the
/// cache and memory interference of other tenants that the ALU loop
/// does not.
struct HostProbe {
  double alu_s = 0.0;
  double memory_s = 0.0;
};

HostProbe ProbeHost() {
  HostProbe probe;
  Clock::time_point t0 = Clock::now();
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (uint32_t i = 0; i < 100'000'000u; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  probe.alu_s = SecondsBetween(t0, Clock::now());
  constexpr uint32_t kSlots = 1u << 21;  // 2M x 8 B = 16 MiB.
  std::vector<uint64_t> table(kSlots);
  for (uint32_t i = 0; i < kSlots; ++i) table[i] = (i * 2654435761u) % kSlots;
  t0 = Clock::now();
  uint64_t at = 0;
  for (uint32_t i = 0; i < 2'000'000u; ++i) at = table[(at + i) % kSlots];
  probe.memory_s = SecondsBetween(t0, Clock::now());
  g_probe_sink = x + at;
  return probe;
}

/// VmHWM of this process in MiB.
double PeakRssMiB() {
  double mib = 0.0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r"); f != nullptr) {
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    }
    std::fclose(f);
    if (kb > 0) mib = static_cast<double>(kb) / 1024.0;
  }
  return mib;
}

// --- Runs -------------------------------------------------------------------

using Metrics = std::map<std::string, double>;

/// Adds the per-scheme replay rates (medians of the untraced passes) and
/// the simulated per-layer statistics of the workload's cells.
void SchemeLayerMetrics(const Bench& bench, Metrics* out) {
  const std::pair<const char*, SchemeKind> schemes[] = {
      {"lru", SchemeKind::kLru},
      {"modulo", SchemeKind::kModulo},
      {"lncr", SchemeKind::kLncr},
      {"coordinated", SchemeKind::kCoordinated}};
  for (const auto& [name, kind] : schemes) {
    const Bench::Pooled p = bench.Pool(kind);
    const std::string prefix = std::string("schemes.") + name;
    (*out)[prefix + ".byte_hit"] = ByteHit(p);
    (*out)[prefix + ".insertions_per_request"] =
        Ratio(static_cast<double>(p.insertions),
              static_cast<double>(p.requests));
    (*out)[prefix + ".rps"] = bench.Rate(kind);
    if (kind == SchemeKind::kLru || kind == SchemeKind::kCoordinated) {
      (*out)[std::string("sim.event.shed_share.") + name] =
          Ratio(static_cast<double>(p.shed), static_cast<double>(p.requests));
    }
  }
  uint64_t requests = 0, cache_hits = 0, ram_hits = 0, probes = 0, sibling_hits = 0;
  double wait_sum = 0.0;
  for (const Cell& cell : bench.cells()) {
    if (!cell.have_first) continue;
    const MetricsSummary& m = cell.first.metrics;
    requests += m.requests;
    cache_hits += m.cache_hits;
    ram_hits += m.ram_hits;
    probes += m.sibling_probes;
    sibling_hits += m.sibling_hits;
    wait_sum += m.avg_queue_wait * static_cast<double>(m.requests);
  }
  (*out)["sim.event.queue_wait_s"] =
      Ratio(wait_sum, static_cast<double>(requests));
  (*out)["cache.tier.ram_hit_share"] =
      Ratio(static_cast<double>(ram_hits), static_cast<double>(cache_hits));
  (*out)["cache.sibling.hit_share"] =
      Ratio(static_cast<double>(sibling_hits), static_cast<double>(probes));
}

struct RunOutput {
  Metrics metrics;
  /// Seconds of every untraced set-up, in the order they ran.
  std::vector<double> setup_seconds;
  std::string spans_file;
};

/// The untraced run: end-to-end metrics only.
Status MeasureRun(const Workload& w, const std::string& trace_path,
                  double seconds, std::unique_ptr<ExperimentRunner>* runner,
                  std::unique_ptr<Bench>* bench_holder, RunOutput* out) {
  // The host's speed wanders by tens of percent over seconds, so no
  // section is timed in one burst. Set-ups take their samples throughout
  // the run: before a cell runs, the workload is set up again (the runner
  // replaced) while set-ups have used less than kSetupShare of the time
  // so far, and at the end until there are w.min_setups samples.
  constexpr double kSetupShare = 0.12;
  std::vector<double>& setup_seconds = out->setup_seconds;
  double setup_total = 0.0;
  const Clock::time_point start = Clock::now();
  auto set_up = [&]() -> Status {
    runner->reset();  // Unmaps the previous trace before it is rewritten.
    const Clock::time_point t0 = Clock::now();
    CASCACHE_ASSIGN_OR_RETURN(*runner, SetUp(w, trace_path, nullptr));
    setup_seconds.push_back(SecondsBetween(t0, Clock::now()));
    setup_total += setup_seconds.back();
    if (*bench_holder != nullptr) (*bench_holder)->set_runner(runner->get());
    return Status::Ok();
  };
  auto run_cell = [&](Cell* cell) -> StatusOr<const RunResult*> {
    while (setup_total < kSetupShare * SecondsBetween(start, Clock::now())) {
      CASCACHE_RETURN_IF_ERROR(set_up());
    }
    return (*bench_holder)->Run(cell, /*keep_seconds=*/true);
  };
  CASCACHE_RETURN_IF_ERROR(set_up());
  *bench_holder = std::make_unique<Bench>(w, runner->get());
  Bench& bench = **bench_holder;
  // Cycle over the cells in sweep order until `seconds` have passed,
  // finishing at least one full pass. A fast cell (one replay under
  // kQuantum) must not take its samples back to back either: after every
  // slow cell, the next kFastPerSlow fast cells in rotation re-run, which
  // spreads each fast cell's samples over the whole run.
  constexpr double kQuantum = 0.5;
  constexpr int kFastPerSlow = 2;
  std::vector<Cell>& cells = bench.cells();
  size_t next_fast = 0;
  for (int pass = 0;; ++pass) {
    bool done = false;
    for (size_t i = 0; i < cells.size() && !done; ++i) {
      CASCACHE_ASSIGN_OR_RETURN(const RunResult* r, run_cell(&cells[i]));
      if (r != nullptr && r->wall_seconds >= kQuantum) {
        std::vector<Cell*> fast;
        for (Cell& cell : cells) {
          if (!cell.seconds.empty() && Median(cell.seconds) < kQuantum) {
            fast.push_back(&cell);
          }
        }
        for (int k = 0; k < kFastPerSlow && !fast.empty(); ++k) {
          CASCACHE_RETURN_IF_ERROR(
              run_cell(fast[next_fast++ % fast.size()]).status());
        }
      }
      done = SecondsBetween(start, Clock::now()) >= seconds &&
             (pass > 0 || i + 1 == cells.size());
    }
    if (done) break;
  }
  while (static_cast<int>(setup_seconds.size()) < w.min_setups) {
    CASCACHE_RETURN_IF_ERROR(set_up());
  }
  Metrics& m = out->metrics;
  m["setup_s"] = Median(setup_seconds);
  m["replay_rps"] = bench.Rate(std::nullopt);
  const Bench::Pooled lru = bench.Pool(SchemeKind::kLru);
  const Bench::Pooled challenger = bench.Pool(w.challenger);
  m["challenger_byte_hit_vs_lru"] = Ratio(ByteHit(challenger), ByteHit(lru));
  m["challenger_latency_vs_lru"] =
      Ratio(MeanLatency(challenger), MeanLatency(lru));
  m["peak_rss_mb"] = PeakRssMiB();
  return Status::Ok();
}

/// Replay phase totals of the traced passes.
struct PhaseSums {
  double configure_s = 0.0;
  double warmup_s = 0.0;
  double warmup_requests = 0.0;
  double measure_s = 0.0;
  double measure_requests = 0.0;
};

/// Replays every cell once; returns requests ÷ summed replay seconds.
/// Traced, each cell gets a span with its replay phases as children, and
/// the phases add to `phases`.
double Pass(Bench* bench, SpanLog* log, PhaseSums* phases) {
  double seconds = 0.0;
  uint64_t requests = 0;
  const double warmup_fraction = bench->workload().config.sim.warmup_fraction;
  for (Cell& cell : bench->cells()) {
    const RunResult* r = nullptr;
    int cell_span = -1;
    {
      ScopedSpan span(log, "cell");
      cell_span = span.index();
      r = bench->Run(&cell, /*keep_seconds=*/log == nullptr);
    }
    if (r == nullptr) continue;
    seconds += r->wall_seconds;
    requests += bench->requests_per_cell();
    if (log == nullptr) continue;
    const double configure =
        std::max(0.0, r->wall_seconds - r->warmup_seconds - r->measure_seconds);
    const double start = log->spans()[static_cast<size_t>(cell_span)].start;
    log->AddChild(cell_span, "sim.configure", start, configure);
    log->AddChild(cell_span, "sim.warmup", start + configure,
                  r->warmup_seconds);
    log->AddChild(cell_span, "sim.measure",
                  start + configure + r->warmup_seconds, r->measure_seconds);
    const double n = static_cast<double>(bench->requests_per_cell());
    const double warmup_requests = std::floor(warmup_fraction * n);
    phases->configure_s += configure;
    phases->warmup_s += r->warmup_seconds;
    phases->warmup_requests += warmup_requests;
    phases->measure_s += r->measure_seconds;
    phases->measure_requests += n - warmup_requests;
  }
  return seconds > 0.0 ? static_cast<double>(requests) / seconds : 0.0;
}

/// Span names whose self time the traced run reports, in nesting order.
const char* const kSpanNames[] = {
    "setup",           "trace.generate",       "trace.map_open",
    "topology.network_build", "sim.runner_create", "cell",
    "sim.configure",   "sim.warmup",           "sim.measure",
    "layers",          "layer.trace.write",    "layer.trace.map_open",
    "layer.trace.scan", "layer.cache.lru",     "layer.cache.ncl",
    "layer.cache.dcache", "layer.cache.freq",  "layer.core.dp",
    "layer.sim.event"};

/// The traced run: per-layer metrics, span self times, tracing overhead.
Status TracedRun(const Workload& w, const std::string& trace_path,
                 const std::string& work_dir, const std::string& tag,
                 double seconds, std::unique_ptr<ExperimentRunner>* runner,
                 std::unique_ptr<Bench>* bench_holder, RunOutput* out) {
  SpanLog log;
  CASCACHE_ASSIGN_OR_RETURN(*runner, SetUp(w, trace_path, &log));
  *bench_holder = std::make_unique<Bench>(w, runner->get());
  Bench& bench = **bench_holder;
  // Alternate untraced and traced passes so host drift hits both alike;
  // a further pair starts only if it fits in `seconds`.
  PhaseSums phases;
  std::vector<double> untraced, traced;
  const Clock::time_point start = Clock::now();
  double pair_seconds = 0.0;
  do {
    const Clock::time_point pair_start = Clock::now();
    untraced.push_back(Pass(&bench, nullptr, &phases));
    traced.push_back(Pass(&bench, &log, &phases));
    pair_seconds = SecondsBetween(pair_start, Clock::now());
  } while (SecondsBetween(start, Clock::now()) + pair_seconds <= seconds);
  {
    ScopedSpan layers(&log, "layers");
    LayerInput input;
    input.catalog = (*runner)->view().catalog;
    input.requests = (*runner)->view().requests;
    input.network = (*runner)->network();
    input.capacity_bytes = static_cast<uint64_t>(
        0.01 * static_cast<double>(input.catalog->total_bytes()));
    input.dcache_ratio = w.config.sim.dcache_ratio;
    input.work_dir = work_dir;
    CASCACHE_RETURN_IF_ERROR(RunLayerDrivers(input, &log, &out->metrics));
  }
  Metrics& m = out->metrics;
  const std::map<std::string, double> self = log.SelfSeconds();
  auto span_seconds = [&](const std::string& name) {
    double total = 0.0;
    for (const SpanLog::Span& s : log.spans()) {
      if (s.name == name) total += s.end - s.start;
    }
    return total;
  };
  m["trace.generate_s"] = span_seconds("trace.generate");
  m["topology.network_build_s"] = span_seconds("topology.network_build");
  const double passes = static_cast<double>(traced.size());
  m["sim.configure_s"] = Ratio(phases.configure_s, passes);
  m["sim.warmup_rps"] = Ratio(phases.warmup_requests, phases.warmup_s);
  m["sim.measure_rps"] = Ratio(phases.measure_requests, phases.measure_s);
  std::vector<double> cell_seconds;
  for (const SpanLog::Span& s : log.spans()) {
    if (s.name == "cell") cell_seconds.push_back(s.end - s.start);
  }
  m["sim.cell_s_p50"] = Median(cell_seconds);
  m["sim.cell_s_max"] =
      cell_seconds.empty()
          ? 0.0
          : *std::max_element(cell_seconds.begin(), cell_seconds.end());
  SchemeLayerMetrics(bench, &m);
  for (const char* name : kSpanNames) {
    const auto it = self.find(name);
    m[std::string("self_s.") + name] = it != self.end() ? it->second : 0.0;
  }
  const double untraced_rps = Median(untraced);
  const double traced_rps = Median(traced);
  m["tracing.overhead_share"] = 1.0 - Ratio(traced_rps, untraced_rps);
  out->spans_file = work_dir + "/spans-" + tag + ".json";
  if (!log.WriteJson(out->spans_file)) {
    return Status::IoError("cannot write " + out->spans_file);
  }
  std::fprintf(stderr, "self time per span (s):\n");
  for (const char* name : kSpanNames) {
    const auto it = self.find(name);
    if (it != self.end()) {
      std::fprintf(stderr, "  %-24s %10.4f\n", name, it->second);
    }
  }
  std::fprintf(stderr,
               "tracing overhead: untraced %.6g req/s, traced %.6g req/s\n",
               untraced_rps, traced_rps);
  return Status::Ok();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

Status Main(int argc, char** argv) {
  cascache::util::FlagParser flags;
  std::string workload_name, work_dir;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false, help = false;
  flags.AddBool("help", false, "print this help", &help);
  flags.AddString("workload", "",
                  "fig9_sweep | enroute_drift_mapped | hier_overload",
                  &workload_name);
  flags.AddUint64("seed", kDefaultSeed, "workload seed", &seed);
  flags.AddDouble("seconds", 30.0, "measured replay time", &seconds);
  flags.AddBool("trace", false,
                "traced run: per-layer metrics and span self times", &trace);
  flags.AddString("work-dir", "", "directory for trace and span files",
                  &work_dir);
  CASCACHE_RETURN_IF_ERROR(flags.Parse(argc - 1, argv + 1));
  if (help) {
    std::fputs(flags.Usage("perfbench").c_str(), stdout);
    return Status::Ok();
  }
  if (work_dir.empty()) return Status::InvalidArgument("--work-dir is required");
  if (!(seconds > 0.0)) return Status::InvalidArgument("--seconds must be > 0");
  CASCACHE_ASSIGN_OR_RETURN(const Workload w,
                            MakeWorkload(workload_name, seed));
  std::error_code ec;
  std::filesystem::create_directories(work_dir, ec);
  if (ec) return Status::IoError("cannot create " + work_dir);
  const std::string tag =
      workload_name + "-" + std::to_string(seed) + (trace ? "-traced" : "");
  const std::string trace_path = work_dir + "/" + tag + ".cctr";

  const HostProbe probe_start = ProbeHost();
  RunOutput out;
  std::unique_ptr<ExperimentRunner> runner;
  std::unique_ptr<Bench> bench;
  const Status status =
      trace ? TracedRun(w, trace_path, work_dir, tag, seconds, &runner, &bench,
                        &out)
            : MeasureRun(w, trace_path, seconds, &runner, &bench, &out);
  runner.reset();
  std::remove(trace_path.c_str());
  CASCACHE_RETURN_IF_ERROR(status);
  const HostProbe probe_end = ProbeHost();

  std::string json = "{\"workload\": " + JsonString(workload_name) +
                     ", \"seed\": " + std::to_string(seed) +
                     ", \"trace\": " + (trace ? "true" : "false") +
                     ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                ", \"probe\": {\"alu_start_s\": %.6f, \"alu_end_s\": %.6f, "
                "\"memory_start_s\": %.6f, \"memory_end_s\": %.6f}",
                probe_start.alu_s, probe_end.alu_s, probe_start.memory_s,
                probe_end.memory_s);
  json += buf;
  json += ", \"attempted\": " + std::to_string(bench->attempted()) +
          ", \"failed\": " + std::to_string(bench->failed());
  json += ", \"errors\": [";
  for (size_t i = 0; i < bench->errors().size(); ++i) {
    json += (i > 0 ? ", " : "") + JsonString(bench->errors()[i]);
  }
  json += "], \"cells\": [";
  const std::vector<Cell>& cells = bench->cells();
  for (size_t i = 0; i < cells.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, cells[i].digest);
    json += std::string(i > 0 ? ", " : "") + "{\"label\": " +
            JsonString(cells[i].label) +
            ", \"runs\": " + std::to_string(cells[i].runs) +
            ", \"failures\": " + std::to_string(cells[i].failures) +
            ", \"digest\": \"" + (cells[i].have_first ? buf : "") +
            "\", \"seconds\": [";
    for (size_t k = 0; k < cells[i].seconds.size(); ++k) {
      std::snprintf(buf, sizeof(buf), "%s%.6f", k > 0 ? ", " : "",
                    cells[i].seconds[k]);
      json += buf;
    }
    json += "]}";
  }
  json += "], \"setup_seconds\": [";
  for (size_t k = 0; k < out.setup_seconds.size(); ++k) {
    std::snprintf(buf, sizeof(buf), "%s%.6f", k > 0 ? ", " : "",
                  out.setup_seconds[k]);
    json += buf;
  }
  json += "], \"spans_file\": " + JsonString(out.spans_file) +
          ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : out.metrics) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    json += std::string(first ? "" : ", ") + JsonString(name) + ": " + buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return Status::Ok();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const cascache::util::Status status = perfbench::Main(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
