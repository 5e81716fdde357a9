// The repository benchmark binary. One process runs one workload from one
// seed: set-up (repeated, median reported), oracle counts, a timed phase
// of closed-loop client passes, and — with --trace 1 — the per-layer
// counters plus a separate traced phase whose Chrome trace lands beside
// the result. It drives the engine only through public entry points and
// writes one JSON result file; perfbench/run.py turns that file into the
// benchmark's output line. See perfbench/README.md for the workloads and
// what each metric measures.
//
//   perfbench_bench --workload pull-wco --seed 1 --seconds 20 --trace 0
//       --out .bench_out/pull-wco-1.json

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "common/random.h"
#include "common/timer.h"
#include "engine/intersect.h"
#include "engine/simd_intersect.h"
#include "graph/partition.h"
#include "huge/huge.h"
#include "obs/trace.h"
#include "oracle/oracle.h"
#include "query/signature.h"

namespace {

using namespace huge;

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile, p in [0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(std::max(x, 1e-300));
  return std::exp(s / static_cast<double>(v.size()));
}

/// Process peak resident set (ru_maxrss is in KiB on Linux).
double PeakRssBytes() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;
}

int Nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + salt);
  return rng.Next();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

enum class Kind { kPullWco, kPushBsp, kJoinRoad, kServiceMix };

struct Args {
  std::string workload;
  Kind kind = Kind::kPullWco;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
};

/// One pattern a client submits: its name, the query and its oracle count.
struct Pattern {
  std::string name;
  QueryGraph query{1};
  uint64_t expected = 0;
};

constexpr int kEngineMachines = 2;
constexpr int kEngineWorkers = 2;
constexpr int kServiceClients = 4;
constexpr int kServiceLabels = 6;
constexpr int kSetups = 7;  ///< set-ups per run; `setup_s` is their median
constexpr int kTracePasses = 3;
constexpr size_t kTraceCap = size_t{1} << 22;

/// The workload's graph shape: the repository's dataset stand-in
/// (bench/bench_common.h) from its fixed generator seed. The run seed only
/// renumbers it (see Renumber), so every seed poses the same matching
/// problem and seed-to-seed spread stays that of the engine.
Graph BaseGraph(Kind kind) {
  switch (kind) {
    case Kind::kPullWco:
      return bench::DatasetByName("lj_s").make();
    case Kind::kPushBsp:
      return bench::DatasetByName("go_s").make();
    case Kind::kJoinRoad:
      return bench::DatasetByName("eu_s").make();
    case Kind::kServiceMix: {  // go_s with uniform labels
      Graph g = bench::DatasetByName("go_s").make();
      Rng rng(DeriveSeed(0, 5));
      std::vector<uint8_t> labels(g.NumVertices());
      for (auto& l : labels) {
        l = static_cast<uint8_t>(rng.NextBounded(kServiceLabels));
      }
      g.AssignLabels(std::move(labels));
      return g;
    }
  }
  return {};
}

/// `base` under a seeded vertex renumbering, labels carried along. Within
/// each block of kRenumberBlock consecutive ids, the vertices that the
/// engine's hash partitioning places on the same machine trade ids at
/// random. That changes the id order symmetry breaking and the kernels see
/// (hence the partial embeddings, batches, cache and steal traffic) while
/// keeping each vertex's machine and, to within a block, its degree rank:
/// a free renumbering would move the one or two dominant hubs between
/// machines, and T_C (the slower machine's time) would jump with them.
constexpr VertexId kRenumberBlock = 8;

Graph Renumber(std::shared_ptr<const Graph> base, uint64_t seed) {
  const VertexId n = base->NumVertices();
  const PartitionedGraph parts(base, kEngineMachines);
  std::vector<VertexId> perm(n);
  Rng rng(seed);
  std::vector<VertexId> ids, shuffled;
  for (VertexId b = 0; b < n; b += kRenumberBlock) {
    const VertexId e = std::min<VertexId>(n, b + kRenumberBlock);
    for (MachineId m = 0; m < kEngineMachines; ++m) {
      ids.clear();
      for (VertexId v = b; v < e; ++v) {
        if (parts.Owner(v) == m) ids.push_back(v);
      }
      shuffled = ids;
      for (size_t i = shuffled.size(); i > 1; --i) {
        std::swap(shuffled[i - 1], shuffled[rng.NextBounded(i)]);
      }
      for (size_t i = 0; i < ids.size(); ++i) perm[ids[i]] = shuffled[i];
    }
  }
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(base->NumEdges());
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v : base->Neighbors(u)) {
      if (u < v) edges.emplace_back(perm[u], perm[v]);
    }
  }
  Graph g = Graph::FromEdges(n, std::move(edges));
  if (base->HasLabels()) {
    std::vector<uint8_t> labels(n);
    for (VertexId v = 0; v < n; ++v) labels[perm[v]] = base->Label(v);
    g.AssignLabels(std::move(labels));
  }
  return g;
}

std::shared_ptr<const Graph> MakeGraph(Kind kind, uint64_t seed) {
  return std::make_shared<Graph>(
      Renumber(std::make_shared<Graph>(BaseGraph(kind)),
               DeriveSeed(seed, 1 + static_cast<int>(kind))));
}

QueryGraph Labelled(const QueryGraph& q, std::initializer_list<int> labels,
                    const std::string& name) {
  QueryGraph out(q.NumVertices(), name);
  for (const auto& [u, v] : q.Edges()) out.AddEdge(u, v);
  int i = 0;
  for (int l : labels) out.SetLabel(static_cast<QueryVertexId>(i++),
                                    static_cast<uint8_t>(l));
  return out;
}

/// Per-client pattern lists. Engine workloads have one client; the
/// service mix has one tenant per client, each with its own labelled
/// patterns. Every service pattern carries four distinct labels, so no
/// automorphism preserves its labels and no two tenants' patterns are
/// isomorphic: their canonical signatures are pairwise distinct and
/// submission de-dup can never fold two tenants' runs.
std::vector<std::vector<Pattern>> MakePatterns(Kind kind) {
  auto one = [](std::vector<QueryGraph> qs) {
    std::vector<Pattern> ps;
    for (auto& q : qs) ps.push_back({q.name(), std::move(q), 0});
    return std::vector<std::vector<Pattern>>{std::move(ps)};
  };
  switch (kind) {
    case Kind::kPullWco:
    case Kind::kPushBsp:
      return one({queries::Q(1), queries::Q(2), queries::Q(3), queries::Q(5)});
    case Kind::kJoinRoad:
      return one({queries::Q(6), queries::Q(7)});
    case Kind::kServiceMix: {
      // Squares (4-cycles 0-1-2-3) and diamonds (4-cycle plus chord 0-2),
      // labelled with four distinct labels out of kServiceLabels.
      const int sq[kServiceClients][4] = {
          {0, 1, 2, 3}, {1, 2, 3, 4}, {2, 3, 4, 5}, {3, 4, 5, 0}};
      const int dm[kServiceClients][4] = {
          {0, 1, 2, 4}, {1, 2, 3, 5}, {2, 3, 4, 0}, {3, 4, 5, 1}};
      const int sq2[kServiceClients][4] = {
          {0, 2, 1, 3}, {1, 3, 2, 4}, {2, 4, 3, 5}, {3, 5, 4, 0}};
      std::vector<std::vector<Pattern>> out(kServiceClients);
      for (int t = 0; t < kServiceClients; ++t) {
        std::string tn = "t";
        tn += std::to_string(t);
        auto add = [&](const QueryGraph& shape, const int* l,
                       const std::string& n) {
          QueryGraph q = Labelled(shape, {l[0], l[1], l[2], l[3]}, tn + "-" + n);
          out[t].push_back({q.name(), std::move(q), 0});
        };
        add(queries::Square(), sq[t], "square-a");
        add(queries::Diamond(), dm[t], "diamond");
        add(queries::Square(), sq2[t], "square-b");
      }
      return out;
    }
  }
  return {};
}

Config EngineConfig(Kind kind) {
  Config cfg;  // HUGE's defaults (adaptive kernels, delta batches, LRBU)
  cfg.num_machines = kEngineMachines;
  cfg.workers_per_machine = kEngineWorkers;
  if (kind == Kind::kServiceMix) cfg.workers_per_machine = 1;
  return cfg;
}

// ---------------------------------------------------------------------------
// Measurement records
// ---------------------------------------------------------------------------

/// One timed query, kept compact: a service-mix run records about 10^4 of
/// them, and their memory is part of the process's peak RSS. A full
/// RunResult per query (~400 bytes with its busy vectors) made
/// `peak_rss_mb` jump whenever the record vector crossed a capacity
/// doubling, that is, with throughput.
struct QueryRecord {
  int client = 0;
  int pattern = 0;
  int pass = 0;
  RunStatus status = RunStatus::kOk;
  uint64_t matches = 0;
  uint64_t peak_memory_bytes = 0;
  double submit_s = 0;   ///< Submit call until the future is returned
  double latency_s = 0;  ///< client-observed: start until the result is in
  double queued_s = 0;
  double admission_wait_s = 0;
  double compute_s = 0;  ///< T_R
  double comm_s = 0;     ///< T_C
  double bytes = 0;      ///< C
};

/// Records are reserved up front so the vectors never reallocate inside
/// the timed phase; pages a reservation does not touch stay out of RSS.
constexpr size_t kRecordReserve = size_t{1} << 16;

struct Phase {
  std::vector<QueryRecord> queries;
  std::vector<double> pass_wall;  ///< one entry per (client, pass)
  double elapsed = 0;
  int passes = 0;  ///< total (client, pass) count
  // Engine counters folded over the queries as they complete.
  RunMetrics sum;                   ///< scalar fields only
  std::vector<double> worker_busy;  ///< busy seconds by worker position
  double machine_busy = 0;          ///< summed BSP machine busy seconds

  void Add(QueryRecord r, const RunResult& res) {
    const RunMetrics& m = res.metrics;
    r.status = res.status;
    r.matches = res.matches;
    r.peak_memory_bytes = m.peak_memory_bytes;
    r.queued_s = res.queued_seconds;
    r.admission_wait_s = res.admission_wait_seconds;
    r.compute_s = m.compute_seconds;
    r.comm_s = m.comm_seconds;
    r.bytes = static_cast<double>(m.bytes_communicated);
    queries.push_back(r);
    RunMetrics scalars = m;
    scalars.worker_busy_seconds.clear();
    scalars.machine_busy_seconds.clear();
    sum.Merge(scalars);
    if (worker_busy.size() < m.worker_busy_seconds.size()) {
      worker_busy.resize(m.worker_busy_seconds.size(), 0.0);
    }
    for (size_t i = 0; i < m.worker_busy_seconds.size(); ++i) {
      worker_busy[i] += m.worker_busy_seconds[i];
    }
    for (double b : m.machine_busy_seconds) machine_busy += b;
  }

  void Absorb(const Phase& o) {
    queries.insert(queries.end(), o.queries.begin(), o.queries.end());
    pass_wall.insert(pass_wall.end(), o.pass_wall.begin(), o.pass_wall.end());
    passes += o.passes;
    sum.Merge(o.sum);
    if (worker_busy.size() < o.worker_busy.size()) {
      worker_busy.resize(o.worker_busy.size(), 0.0);
    }
    for (size_t i = 0; i < o.worker_busy.size(); ++i) {
      worker_busy[i] += o.worker_busy[i];
    }
    machine_busy += o.machine_busy;
  }
};

struct Output {
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  std::map<std::string, double> diag;  ///< diagnostics, not benchmark metrics
  std::vector<std::string> guard_errors;
  std::vector<std::string> mismatches;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string trace_file;
  int trace_passes = 0;
};

/// Counts failures (status not ok, or a count that differs from the
/// oracle's) and remembers the first few for the log.
void CheckAnswers(const Phase& ph,
                  const std::vector<std::vector<Pattern>>& patterns,
                  Output* out) {
  for (const QueryRecord& r : ph.queries) {
    ++out->attempted;
    const Pattern& p = patterns[r.client][r.pattern];
    if (r.status != RunStatus::kOk || r.matches != p.expected) {
      ++out->failed;
      if (out->mismatches.size() < 8) {
        out->mismatches.push_back(
            p.name + ": status " + ToString(r.status) + ", count " +
            std::to_string(r.matches) + ", oracle " +
            std::to_string(p.expected));
      }
    }
  }
}

void EndToEnd(Kind kind, const Phase& ph, Output* out) {
  struct Pass {  // one (client, pass)
    std::vector<double> latency_ms;
    double comm_s = 0, bytes = 0;
  };
  std::map<std::pair<int, int>, Pass> passes;
  std::map<std::pair<int, int>, std::vector<double>> by_class;
  for (const QueryRecord& r : ph.queries) {
    Pass& p = passes[{r.client, r.pass}];
    p.latency_ms.push_back(r.latency_s * 1e3);
    p.comm_s += r.comm_s;
    p.bytes += r.bytes;
    by_class[{r.client, r.pattern}].push_back(r.latency_s * 1e3);
  }
  // service-mix: percentiles over every query (its patterns cost about the
  // same). The engine workloads' patterns differ up to 30x in cost, and a
  // percentile of single queries lands on whichever class boundary it
  // hits, so there each pass is one sample: the geometric mean of its
  // queries' latencies.
  std::vector<double> latency, comm_s, comm_b;
  for (const auto& [key, p] : passes) {
    if (kind == Kind::kServiceMix) {
      latency.insert(latency.end(), p.latency_ms.begin(), p.latency_ms.end());
    } else {
      latency.push_back(GeoMean(p.latency_ms));
    }
    comm_s.push_back(p.comm_s);
    comm_b.push_back(p.bytes);
  }
  auto& e = out->end_to_end;
  e["wall_s"] = Median(ph.pass_wall);
  e["qps"] = static_cast<double>(ph.queries.size()) / ph.elapsed;
  e["latency_p50_ms"] = Percentile(latency, 0.5);
  e["latency_p90_ms"] = Percentile(latency, 0.9);
  e["comm_s"] = Median(comm_s);
  e["comm_mb"] = Median(comm_b) / 1e6;
  out->diag["timed_passes"] = ph.passes;
  out->diag["timed_queries"] = static_cast<double>(ph.queries.size());
  out->diag["timed_elapsed_s"] = ph.elapsed;
  int c = 0;
  for (auto& [cls, v] : by_class) {
    out->diag["class" + std::to_string(c) + "_p50_ms"] = Percentile(v, 0.5);
    out->diag["class" + std::to_string(c) + "_n"] = v.size();
    ++c;
  }
}

/// Engine-layer counters over the timed phase, per client pass.
void EngineLayers(const Phase& ph, Output* out) {
  const double passes = std::max(1, ph.passes);
  const RunMetrics& sum = ph.sum;
  const std::vector<double>& per_worker = ph.worker_busy;
  double peak_tracked = 0;
  uint64_t invalid = 0;
  const double rss = PeakRssBytes();
  for (const QueryRecord& r : ph.queries) {
    // The tracker's peak is only meaningful when it fits in the process:
    // a reused executor can report an unsigned wrap (see README.md).
    const double peak = static_cast<double>(r.peak_memory_bytes);
    if (peak <= rss) {
      peak_tracked = std::max(peak_tracked, peak);
    } else {
      ++invalid;
    }
  }
  double busy = 0;
  for (double b : per_worker) busy += b;
  double imbalance = 0;
  if (!per_worker.empty() && busy > 0) {
    const double mean = busy / static_cast<double>(per_worker.size());
    double var = 0;
    for (double b : per_worker) var += (b - mean) * (b - mean);
    imbalance =
        std::sqrt(var / static_cast<double>(per_worker.size())) / mean;
  }
  auto& l = out->per_layer;
  l["plan.intermediate_rows"] = sum.intermediate_rows / passes;
  l["engine.compute_s"] = sum.compute_seconds / passes;
  l["engine.fetch_s"] = sum.fetch_seconds / passes;
  l["engine.intersect_busy_s"] = busy / passes;
  l["engine.busy_imbalance"] = imbalance;
  l["engine.steals_intra"] = sum.intra_steals / passes;
  l["engine.steals_inter"] = sum.inter_steals / passes;
  l["engine.bsp_busy_s"] = ph.machine_busy / passes;
  l["engine.delta_rows"] = sum.delta_rows / passes;
  l["engine.materialize_rows"] = sum.materialize_rows / passes;
  l["engine.peak_tracked_mb"] = peak_tracked / 1e6;
  l["engine.peak_tracked_invalid"] = static_cast<double>(invalid);
  l["engine.fused_count_rows"] = sum.fused_count_rows / passes;
  l["engine.hub_probe_rows"] = sum.hub_probe_rows / passes;
  l["cache.hit_rate"] = sum.CacheHitRate();
  l["net.rpc_requests"] = sum.rpc_requests / passes;
  l["net.push_messages"] = sum.push_messages / passes;
  out->diag["remote_full_rows"] = static_cast<double>(sum.remote_full_rows);
}

/// Service-side split of the client latency (medians over queries).
void ServiceLayers(const Phase& ph, bool has_submit, Output* out) {
  std::vector<double> submit, queued, adm, exec, delivery;
  for (const QueryRecord& r : ph.queries) {
    submit.push_back(r.submit_s * 1e6);
    queued.push_back(r.queued_s * 1e3);
    adm.push_back(r.admission_wait_s * 1e3);
    exec.push_back(r.compute_s * 1e3);
    delivery.push_back((r.latency_s - r.queued_s - r.compute_s) * 1e3);
  }
  auto& l = out->per_layer;
  l["service.submit_us"] = has_submit ? Median(submit) : 0.0;
  l["service.queue_wait_ms"] = Median(queued);
  l["service.admission_wait_ms"] = Median(adm);
  l["service.exec_ms"] = Median(exec);
  l["service.delivery_ms"] = Median(delivery);
}

/// Plan-cache, shared-cache and concurrency figures over the timed phase
/// of the service the queries went through: the workload's QueryService,
/// or on the engine workloads the Runner's internal single-slot one.
void ServiceCounters(const ServiceMetrics& before, const ServiceMetrics& after,
                     Output* out) {
  auto rate = [](uint64_t hits, uint64_t misses) {
    return hits + misses == 0 ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(hits + misses);
  };
  auto& l = out->per_layer;
  l["cache.shared_hit_rate"] =
      rate(after.shared_cache_hits - before.shared_cache_hits,
           after.shared_cache_misses - before.shared_cache_misses);
  l["service.plan_cache_hit_rate"] =
      rate(after.plan_cache_hits - before.plan_cache_hits,
           after.plan_cache_misses - before.plan_cache_misses);
  l["service.peak_concurrency"] = after.peak_concurrency;
}

/// Replays IntersectCountSorted over a seeded sample of the graph's edges
/// (the neighbourhoods a triangle-closing extension intersects) and
/// checks every count against a scalar merge.
double KernelNsPerPair(const Graph& g, uint64_t seed, Output* out) {
  Rng rng(DeriveSeed(seed, 99));
  std::vector<std::pair<VertexId, VertexId>> pairs;
  const VertexId n = g.NumVertices();
  while (pairs.size() < 20000) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
    const auto nu = g.Neighbors(u);
    if (nu.empty()) continue;
    pairs.emplace_back(u, nu[rng.NextBounded(nu.size())]);
  }
  uint64_t expect = 0;
  for (const auto& [u, v] : pairs) {
    const auto a = g.Neighbors(u);
    const auto b = g.Neighbors(v);
    size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i] < b[j]) {
        ++i;
      } else if (b[j] < a[i]) {
        ++j;
      } else {
        ++expect, ++i, ++j;
      }
    }
  }
  std::vector<double> ns;
  for (int rep = 0; rep < 15; ++rep) {
    uint64_t got = 0;
    WallTimer t;
    for (const auto& [u, v] : pairs) {
      got += IntersectCountSorted(g.Neighbors(u), g.Neighbors(v));
    }
    ns.push_back(t.Seconds() * 1e9 / static_cast<double>(pairs.size()));
    if (got != expect) {
      ++out->failed;
      out->mismatches.push_back("IntersectCountSorted replay: " +
                                std::to_string(got) + " vs " +
                                std::to_string(expect));
      break;
    }
  }
  ++out->attempted;
  return Median(ns);
}

void PlanLayers(const std::vector<std::vector<Pattern>>& patterns,
                const GraphStats& stats, Output* out) {
  OptimizerOptions opts;
  opts.num_machines = kEngineMachines;
  double optimize_ms = 0, signature_us = 0;
  std::vector<double> qerr;
  for (const auto& client : patterns) {
    for (const Pattern& p : client) {
      std::vector<double> opt, sig;
      for (int rep = 0; rep < 9; ++rep) {
        WallTimer t;
        ExecutionPlan plan = Optimize(p.query, stats, opts);
        opt.push_back(t.Seconds() * 1e3);
        WallTimer s;
        const std::string key = CanonicalSignature(p.query);
        sig.push_back(s.Seconds() * 1e6);
        if (plan.root < 0 || key.empty()) Die("empty plan or signature");
      }
      optimize_ms += Median(opt);
      signature_us += Median(sig);
      const EdgeMask full =
          static_cast<EdgeMask>((uint64_t{1} << p.query.NumEdges()) - 1);
      const double est = EstimateCardinality(p.query, full, stats);
      if (p.expected > 0 && est > 0) qerr.push_back(est / p.expected);
    }
  }
  auto& l = out->per_layer;
  l["plan.optimize_ms"] = optimize_ms;
  l["query.signature_us"] = signature_us;
  l["plan.qerror"] = GeoMean(qerr);
}

// ---------------------------------------------------------------------------
// Engine workloads: one client driving a Runner
// ---------------------------------------------------------------------------

struct EngineSetup {
  std::shared_ptr<const Graph> graph;
  std::unique_ptr<Runner> runner;
  std::vector<ExecutionPlan> push_plans;  ///< push-bsp only
  double build_s = 0;
  double construct_s = 0;
};

RunResult RunPattern(Kind kind, EngineSetup& s, int i, const Pattern& p) {
  return kind == Kind::kPushBsp ? s.runner->RunPlan(s.push_plans[i])
                                : s.runner->Run(p.query);
}

EngineSetup SetupEngine(Kind kind, uint64_t seed,
                        const std::vector<Pattern>& patterns) {
  EngineSetup s;
  WallTimer t;
  s.graph = MakeGraph(kind, seed);
  s.build_s = t.Seconds();
  WallTimer c;
  s.runner = std::make_unique<Runner>(s.graph, EngineConfig(kind));
  s.construct_s = c.Seconds();
  for (const Pattern& p : patterns) {
    if (kind == Kind::kPushBsp) {
      s.push_plans.push_back(WcoLeftDeepPlan(p.query, CommMode::kPush));
    }
  }
  // Warm-up pass: fills the plan cache and the executor's pools.
  for (size_t i = 0; i < patterns.size(); ++i) {
    const RunResult r = RunPattern(kind, s, static_cast<int>(i), patterns[i]);
    if (!r.ok()) Die("warm-up query " + patterns[i].name + " failed");
  }
  return s;
}

Phase TimedEngine(Kind kind, EngineSetup& s,
                  const std::vector<Pattern>& patterns, double seconds) {
  Phase ph;
  ph.queries.reserve(kRecordReserve);
  WallTimer total;
  for (int pass = 0; total.Seconds() < seconds; ++pass) {
    WallTimer pw;
    for (size_t i = 0; i < patterns.size(); ++i) {
      QueryRecord r;
      r.pattern = static_cast<int>(i);
      r.pass = pass;
      WallTimer lat;
      const RunResult res = RunPattern(kind, s, r.pattern, patterns[i]);
      r.latency_s = lat.Seconds();
      ph.Add(r, res);
    }
    ph.pass_wall.push_back(pw.Seconds());
    ++ph.passes;
  }
  ph.elapsed = total.Seconds();
  return ph;
}

/// The traced phase of an engine workload: a standalone cluster running
/// the workload's plans through Cluster::Run with a caller-owned trace,
/// alternating untraced and traced passes so the overhead ratio compares
/// like with like.
void TracedEngine(Kind kind, const EngineSetup& s,
                  const std::vector<Pattern>& patterns,
                  const std::string& trace_path, Output* out) {
  Cluster cluster(s.graph, EngineConfig(kind));
  const GraphStats stats = GraphStats::Compute(*s.graph);
  OptimizerOptions opts;
  opts.num_machines = kEngineMachines;
  std::vector<Dataflow> dfs;
  for (size_t i = 0; i < patterns.size(); ++i) {
    dfs.push_back(Translate(kind == Kind::kPushBsp
                                ? s.push_plans[i]
                                : Optimize(patterns[i].query, stats, opts)));
  }
  for (const Dataflow& df : dfs) cluster.Run(df);  // warm-up
  std::string body;
  std::vector<double> plain, traced;
  uint64_t pid = 1;
  for (int pass = 0; pass < kTracePasses; ++pass) {
    WallTimer pw;
    for (size_t i = 0; i < dfs.size(); ++i) {
      const RunResult r = cluster.Run(dfs[i]);
      ++out->attempted;
      if (!r.ok() || r.matches != patterns[i].expected) ++out->failed;
    }
    plain.push_back(pw.Seconds());
    WallTimer tw;
    for (size_t i = 0; i < dfs.size(); ++i) {
      QueryTrace trace(kTraceCap);
      const uint64_t start = trace.NowNs();
      const RunResult r = cluster.Run(dfs[i], nullptr, &trace);
      trace.AddSpan("client", "bench", QueryTrace::kServiceTrack, start,
                    trace.NowNs() - start);
      ++out->attempted;
      if (!r.ok() || r.matches != patterns[i].expected) ++out->failed;
      trace.AppendChromeEvents(pid++, patterns[i].name, &body);
    }
    traced.push_back(tw.Seconds());
  }
  out->per_layer["obs.trace_overhead"] = Median(traced) / Median(plain);
  std::FILE* f = std::fopen(trace_path.c_str(), "w");
  if (f == nullptr) Die("cannot write " + trace_path);
  std::fprintf(f, "[\n%s\n]\n", body.c_str());
  std::fclose(f);
  out->trace_file = trace_path;
  out->trace_passes = kTracePasses;
}

// ---------------------------------------------------------------------------
// service-mix: closed-loop tenants over one QueryService
// ---------------------------------------------------------------------------

ServiceConfig MixServiceConfig() {
  ServiceConfig sc;  // defaults: shared fabric, plan cache, de-dup on
  sc.engine = EngineConfig(Kind::kServiceMix);
  // Each query weighs machines x workers = 2 cores, so a budget of 4
  // admits exactly two queries at once — the default slot count.
  sc.core_budget = 4;
  return sc;
}

/// Runs `clients` closed-loop tenants: until `seconds` have passed (or for
/// exactly `passes` passes when `passes` > 0), each submits its patterns
/// in order and waits for every result before the next submission.
Phase ClosedLoop(QueryService& service,
                 const std::vector<std::vector<Pattern>>& patterns,
                 double seconds, int passes,
                 std::vector<std::vector<uint64_t>>* handles = nullptr) {
  const int clients = static_cast<int>(patterns.size());
  std::vector<Phase> per(clients);
  for (Phase& p : per) p.queries.reserve(kRecordReserve);
  if (handles != nullptr) handles->assign(clients, {});
  WallTimer total;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      SubmitOptions opts;
      opts.tenant = "tenant-" + std::to_string(c);
      for (int pass = 0; passes > 0 ? pass < passes : total.Seconds() < seconds;
           ++pass) {
        WallTimer pw;
        for (size_t i = 0; i < patterns[c].size(); ++i) {
          QueryRecord r;
          r.client = c;
          r.pattern = static_cast<int>(i);
          r.pass = pass;
          uint64_t handle = 0;
          WallTimer lat;
          auto fut = service.Submit(patterns[c][i].query, opts, &handle);
          r.submit_s = lat.Seconds();
          const RunResult res = fut.get();
          r.latency_s = lat.Seconds();
          if (handles != nullptr) (*handles)[c].push_back(handle);
          per[c].Add(r, res);
        }
        per[c].pass_wall.push_back(pw.Seconds());
        ++per[c].passes;
      }
    });
  }
  for (auto& t : threads) t.join();
  Phase ph;
  ph.elapsed = total.Seconds();
  size_t n = 0;
  for (const Phase& p : per) n += p.queries.size();
  ph.queries.reserve(n);
  for (const Phase& p : per) ph.Absorb(p);
  return ph;
}

struct ServiceSetup {
  std::shared_ptr<const Graph> graph;
  std::unique_ptr<QueryService> service;
  double build_s = 0;
  double construct_s = 0;
};

void WarmUp(QueryService& service,
            const std::vector<std::vector<Pattern>>& patterns) {
  for (size_t c = 0; c < patterns.size(); ++c) {
    SubmitOptions opts;
    opts.tenant = "tenant-" + std::to_string(c);
    for (const Pattern& p : patterns[c]) {
      if (!service.Submit(p.query, opts).get().ok()) {
        Die("warm-up query " + p.name + " failed");
      }
    }
  }
}

ServiceSetup SetupService(uint64_t seed,
                          const std::vector<std::vector<Pattern>>& patterns) {
  ServiceSetup s;
  WallTimer t;
  s.graph = MakeGraph(Kind::kServiceMix, seed);
  s.build_s = t.Seconds();
  WallTimer c;
  s.service = std::make_unique<QueryService>(s.graph, MixServiceConfig());
  s.construct_s = c.Seconds();
  WarmUp(*s.service, patterns);
  return s;
}

void TracedService(const std::shared_ptr<const Graph>& graph,
                   const std::vector<std::vector<Pattern>>& patterns,
                   double untraced_pass_wall, const std::string& trace_path,
                   Output* out) {
  ServiceConfig sc = MixServiceConfig();
  sc.obs.trace_queries = true;
  sc.obs.trace_buffer_cap = kTraceCap;
  size_t per_pass = 0;
  for (const auto& c : patterns) per_pass += c.size();
  sc.obs.trace_retention = per_pass * kTracePasses;
  QueryService service(graph, sc);
  WarmUp(service, patterns);
  std::vector<std::vector<uint64_t>> handles;
  Phase ph = ClosedLoop(service, patterns, 0, kTracePasses, &handles);
  service.Drain();
  CheckAnswers(ph, patterns, out);
  out->per_layer["obs.trace_overhead"] =
      Median(ph.pass_wall) / untraced_pass_wall;
  // The service's retained traces (one pid per submission handle) plus
  // the benchmark's own client span per submission on the service lane.
  // The trace's epoch is taken inside Submit, so a span from the epoch
  // lasting the latency minus the Submit call ends at or before delivery.
  std::string doc = service.RetainedTracesJson();
  const size_t close = doc.rfind(']');
  if (close == std::string::npos) Die("malformed service trace");
  doc.resize(close);
  while (!doc.empty() && (doc.back() == '\n' || doc.back() == ' ')) {
    doc.pop_back();
  }
  std::map<int, size_t> seen;
  for (const QueryRecord& r : ph.queries) {
    const uint64_t handle = handles[r.client][seen[r.client]++];
    char ev[256];
    std::snprintf(ev, sizeof(ev),
                  ",\n{\"name\":\"client\",\"cat\":\"bench\",\"ph\":\"X\","
                  "\"ts\":0,\"dur\":%.3f,\"pid\":%llu,\"tid\":%d}",
                  (r.latency_s - r.submit_s) * 1e6,
                  static_cast<unsigned long long>(handle),
                  QueryTrace::kServiceTrack);
    doc += ev;
  }
  doc += "\n]\n";
  std::FILE* f = std::fopen(trace_path.c_str(), "w");
  if (f == nullptr) Die("cannot write " + trace_path);
  std::fputs(doc.c_str(), f);
  std::fclose(f);
  out->trace_file = trace_path;
  out->trace_passes = ph.passes;
}

// ---------------------------------------------------------------------------
// Run
// ---------------------------------------------------------------------------

void ComputeOracle(const Graph& g, std::vector<std::vector<Pattern>>* ps) {
  for (auto& client : *ps) {
    for (Pattern& p : client) p.expected = Oracle::Count(g, p.query);
  }
}

void Run(const Args& a, Output* out) {
  std::vector<std::vector<Pattern>> patterns = MakePatterns(a.kind);
  const int nproc = Nproc();
  const int engine_threads =
      EngineConfig(a.kind).num_machines * EngineConfig(a.kind).workers_per_machine;
  const int client_threads = static_cast<int>(patterns.size());
  if (engine_threads > nproc || client_threads > nproc) {
    out->guard_errors.push_back(
        "engine threads " + std::to_string(engine_threads) +
        " or client threads " + std::to_string(client_threads) +
        " exceed nproc " + std::to_string(nproc));
  }
  const std::string trace_path = a.out.substr(0, a.out.rfind('.')) +
                                 ".trace.json";
  // The first set-up serves the run. The others come after the timed
  // phase and only time themselves: set-ups run before it would leave
  // their freed pools and arenas in the process, and the peak RSS of the
  // timed phase would vary with how they were reused.
  std::vector<double> setup_s, build_s, construct_s;
  auto note = [&](double setup, double build, double construct) {
    setup_s.push_back(setup);
    build_s.push_back(build);
    construct_s.push_back(construct);
  };

  if (a.kind != Kind::kServiceMix) {
    WallTimer t;
    EngineSetup s = SetupEngine(a.kind, a.seed, patterns[0]);
    note(t.Seconds(), s.build_s, s.construct_s);
    ComputeOracle(*s.graph, &patterns);
    const ServiceMetrics before = s.runner->service().metrics();
    Phase ph = TimedEngine(a.kind, s, patterns[0], a.seconds);
    out->end_to_end["peak_rss_mb"] = PeakRssBytes() / 1e6;
    CheckAnswers(ph, patterns, out);
    EndToEnd(a.kind, ph, out);
    for (int i = 1; i < kSetups; ++i) {
      WallTimer ti;
      const EngineSetup extra = SetupEngine(a.kind, a.seed, patterns[0]);
      note(ti.Seconds(), extra.build_s, extra.construct_s);
    }
    if (a.trace) {
      EngineLayers(ph, out);
      ServiceLayers(ph, /*has_submit=*/false, out);
      ServiceCounters(before, s.runner->service().metrics(), out);
      PlanLayers(patterns, GraphStats::Compute(*s.graph), out);
      out->per_layer["engine.kernel_ns_per_pair"] =
          KernelNsPerPair(*s.graph, a.seed, out);
      TracedEngine(a.kind, s, patterns[0], trace_path, out);
    }
  } else {
    WallTimer t;
    ServiceSetup s = SetupService(a.seed, patterns);
    note(t.Seconds(), s.build_s, s.construct_s);
    ComputeOracle(*s.graph, &patterns);
    const ServiceMetrics before = s.service->metrics();
    Phase ph = ClosedLoop(*s.service, patterns, a.seconds, 0);
    s.service->Drain();
    out->end_to_end["peak_rss_mb"] = PeakRssBytes() / 1e6;
    CheckAnswers(ph, patterns, out);
    EndToEnd(a.kind, ph, out);
    const ServiceMetrics m = s.service->metrics();
    // Steadiness guards: distinct signatures keep de-dup from folding
    // runs, the core gate must admit exactly two queries, and label-sliced
    // pulls must serve every labelled remote read.
    if (m.dedup_hits != 0) {
      out->guard_errors.push_back("dedup_hits = " +
                                  std::to_string(m.dedup_hits));
    }
    if (m.peak_concurrency != 2) {
      out->guard_errors.push_back("peak_concurrency = " +
                                  std::to_string(m.peak_concurrency));
    }
    if (m.merged.remote_full_rows != 0) {
      out->guard_errors.push_back("remote_full_rows = " +
                                  std::to_string(m.merged.remote_full_rows));
    }
    std::shared_ptr<const Graph> graph = s.graph;
    const GraphStats stats = s.service->stats();
    s.service.reset();  // one fabric at a time
    for (int i = 1; i < kSetups; ++i) {
      WallTimer ti;
      const ServiceSetup extra = SetupService(a.seed, patterns);
      note(ti.Seconds(), extra.build_s, extra.construct_s);
    }
    if (a.trace) {
      EngineLayers(ph, out);
      ServiceLayers(ph, /*has_submit=*/true, out);
      ServiceCounters(before, m, out);
      PlanLayers(patterns, stats, out);
      out->per_layer["engine.kernel_ns_per_pair"] =
          KernelNsPerPair(*graph, a.seed, out);
      TracedService(graph, patterns, Median(ph.pass_wall), trace_path, out);
    }
  }
  out->end_to_end["setup_s"] = Median(setup_s);
  if (a.trace) {
    out->per_layer["graph.build_s"] = Median(build_s);
    out->per_layer["engine.construct_s"] = Median(construct_s);
  }
}

void WriteResult(const Args& a, const Output& o) {
  std::FILE* f = std::fopen(a.out.c_str(), "w");
  if (f == nullptr) Die("cannot write " + a.out);
  auto block = [f](const char* key, const std::map<std::string, double>& m,
                   bool last) {
    std::fprintf(f, "  \"%s\": {", key);
    bool first = true;
    for (const auto& [k, v] : m) {
      std::fprintf(f, "%s\n    \"%s\": %s", first ? "" : ",", k.c_str(),
                   Num(v).c_str());
      first = false;
    }
    std::fprintf(f, "\n  }%s\n", last ? "" : ",");
  };
  auto list = [f](const char* key, const std::vector<std::string>& v) {
    std::fprintf(f, "  \"%s\": [", key);
    for (size_t i = 0; i < v.size(); ++i) {
      std::fprintf(f, "%s\"%s\"", i ? ", " : "", JsonEscape(v[i]).c_str());
    }
    std::fprintf(f, "],\n");
  };
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"host\": {\"workload\": \"%s\", \"seed\": %llu, "
               "\"seconds\": %s, \"nproc\": %d, \"simd\": \"%s\", "
               "\"build_type\": \"%s\", \"cxx_flags\": \"%s\", "
               "\"setups\": %d},\n",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed),
               Num(a.seconds).c_str(), Nproc(),
               simd::ToString(simd::ActiveLevel()), PERFBENCH_BUILD_TYPE,
               PERFBENCH_CXX_FLAGS, kSetups);
  std::fprintf(f, "  \"attempted\": %llu,\n  \"failed\": %llu,\n",
               static_cast<unsigned long long>(o.attempted),
               static_cast<unsigned long long>(o.failed));
  list("mismatches", o.mismatches);
  list("guard_errors", o.guard_errors);
  std::fprintf(f, "  \"trace_file\": \"%s\",\n  \"trace_passes\": %d,\n",
               JsonEscape(o.trace_file).c_str(), o.trace_passes);
  block("diag", o.diag, false);
  block("end_to_end", o.end_to_end, false);
  block("per_layer", o.per_layer, true);
  std::fprintf(f, "}\n");
  std::fclose(f);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  if (argc % 2 == 0) Die("arguments come in --flag value pairs");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--out") {
      a.out = v;
    } else {
      Die("unknown argument " + k);
    }
  }
  const std::map<std::string, Kind> kinds = {{"pull-wco", Kind::kPullWco},
                                             {"push-bsp", Kind::kPushBsp},
                                             {"join-road", Kind::kJoinRoad},
                                             {"service-mix", Kind::kServiceMix}};
  const auto it = kinds.find(a.workload);
  if (it == kinds.end()) Die("unknown workload '" + a.workload + "'");
  a.kind = it->second;
  if (a.out.empty()) Die("--out is required");
  if (!(a.seconds > 0)) Die("--seconds must be > 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  // The workloads are the unscaled stand-ins, whatever the environment says.
  unsetenv("HUGE_BENCH_SCALE");
  const Args args = ParseArgs(argc, argv);
  Output out;
  Run(args, &out);
  WriteResult(args, out);
  return 0;
}
