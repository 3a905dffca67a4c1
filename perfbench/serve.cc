// perfbench_serve -- the end-to-end serving benchmark.
//
//   perfbench_serve --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//                   [--quick] [--spans=<path>]
//
// One seeded serving job per workload, driven through the public APIs of
// `workloads`, `core::Planner` and `core::Cluster` from admit to report.
// The loop is closed: the arrivals of tick t+1 are pushed only after the
// run call of tick t returns, as every caller in the repository drives the
// cluster. A repetition is set-up (generate inputs, plan, build the
// cluster, initial admits) followed by the timed phase (the ticks, then
// drain_all, report and close). A warm-up repetition comes first, then
// repetitions until --seconds is spent, and every repetition of a run must
// produce identical counters. Host times are scaled to a nominal host speed
// by a reference job timed between repetitions (see ReferenceJob).
//
// Layers are measured from outside only: by timing the driver's own calls
// into each module (spans, --trace=1) and by reading the counters that
// ClusterReport exposes. --trace=0 prints the end-to-end metrics; --trace=1
// alternates untraced and traced repetitions and prints the per-layer
// metrics, the tracing overhead, and checks that tracing changed no count.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is non-zero when a correctness check fails, an operation
// fails, or the build is not one whose timings may be reported.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "core/planner.h"
#include "util/error.h"
#include "util/rng.h"
#include "workloads/arrivals.h"
#include "workloads/pipelines.h"
#include "workloads/random_dag.h"

namespace {

using namespace ccs;

/// Host time in seconds (steady wall clock).
double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch()).count();
}

// ---------------------------------------------------------------------------
// Spans: one per driver call into a layer, kept in memory.

enum class Layer : std::uint8_t { kDriver, kWorkloads, kPartition, kCore, kSession };

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kDriver: return "driver";
    case Layer::kWorkloads: return "workloads";
    case Layer::kPartition: return "partition";
    case Layer::kCore: return "core";
    case Layer::kSession: return "session";
  }
  return "?";
}

struct Span {
  Layer layer = Layer::kDriver;
  const char* function = "";  // a string literal
  double start = 0;  // now_s()
  double end = 0;
  std::int32_t parent = -1;  // index of the enclosing span; -1 = top level
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Runs f(), recording it as a span of `layer` when tracing is on.
  template <class F>
  decltype(auto) call(Layer layer, const char* function, F&& f) {
    if (!enabled_) return f();
    struct Scope {
      Tracer* tracer;
      std::int32_t id;
      ~Scope() { tracer->close(id); }
    } scope{this, open(layer, function)};
    return f();
  }

  std::vector<Span> take() { return std::move(spans_); }

 private:
  std::int32_t open(Layer layer, const char* function) {
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({layer, function, now_s(), 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }
  void close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end = now_s();
    stack_.pop_back();
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// Self time (span minus the part its children cover) summed per
/// "layer.function" key and per layer.
std::map<std::string, double> self_times(const std::vector<Span>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double self = spans[i].end - spans[i].start - child[i];
    out[std::string(layer_name(spans[i].layer)) + "." + spans[i].function] += self;
    out[layer_name(spans[i].layer)] += self;
  }
  return out;
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream os(path);
  if (!os) throw Error("cannot write spans to '" + path + "'");
  const double base = spans.empty() ? 0 : spans.front().start;
  const auto us = [&](double t) { return 1e6 * (t - base); };
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.function << "\", \"cat\": \""
       << layer_name(s.layer) << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
       << us(s.start) << ", \"dur\": " << us(s.end) - us(s.start)
       << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent << "}}";
  }
  os << "\n]}\n";
}

// ---------------------------------------------------------------------------
// Host speed. The benchmark shares a host whose speed for this kind of work
// drifts by a third over minutes (other jobs' load on the shared caches),
// and the drift moved every host figure more than any median over
// repetitions could hide. So a fixed reference job is timed between
// repetitions, and each repetition's host times are scaled by
// ReferenceJob::kNominalMs over the geometric mean of the reference times
// just before and just after it. A change of host speed moves the program
// and the reference alike and cancels; a change of the program is not seen
// by the reference and moves the figures in full.

/// LRU cache simulation over 32768 blocks -- open addressing with
/// backward-shift deletion and a circular recency list -- fed a fixed
/// pseudo-random stream that misses about one access in five. It is written
/// here and uses nothing from the library, so no change to the program
/// changes it, and its hash probes and pointer updates are slowed by a busy
/// host as the simulator's are (it tracked the driver's firings/s better
/// than a pointer chase or an arithmetic loop did). Every call starts from
/// an empty cache and does the same work.
class ReferenceJob {
 public:
  /// One call's time on the host the figures are scaled to: about its
  /// median on the 4-vCPU Xeon VM the bounds were set on.
  static constexpr double kNominalMs = 50.0;

  /// Runs the job once; returns its host time in milliseconds.
  double run_ms() {
    std::fill(slot_key_.begin(), slot_key_.end(), kNone);
    next_[kSentinel] = prev_[kSentinel] = kSentinel;
    std::uint32_t used = 0;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    const double begin = now_s();
    for (int i = 0; i < kAccesses; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const auto key = static_cast<std::uint32_t>(x % (kBlocks + kBlocks / 4));
      std::uint32_t s = home(key);
      while (slot_key_[s] != kNone && slot_key_[s] != key) s = (s + 1) & kMask;
      std::uint32_t n = 0;
      if (slot_key_[s] == key) {
        n = slot_node_[s];
        if (n == next_[kSentinel]) continue;  // already the most recent
        unlink(n);
      } else if (used < kBlocks) {
        n = used++;
        place(s, key, n);
      } else {
        n = prev_[kSentinel];  // the least recently used block
        unlink(n);
        erase(where_[n]);
        s = home(key);
        while (slot_key_[s] != kNone) s = (s + 1) & kMask;
        place(s, key, n);
      }
      prev_[n] = kSentinel;  // becomes the most recent
      next_[n] = next_[kSentinel];
      prev_[next_[kSentinel]] = n;
      next_[kSentinel] = n;
    }
    const double ms = 1e3 * (now_s() - begin);
    sink_ = next_[kSentinel];  // keeps the work observable
    return ms;
  }

 private:
  static constexpr std::uint32_t kBlocks = 32768, kSlots = 65536, kMask = kSlots - 1;
  static constexpr std::uint32_t kSentinel = kBlocks, kNone = 0xffffffffU;
  static constexpr int kAccesses = 3'000'000;

  static std::uint32_t home(std::uint32_t key) { return (key * 2654435761U) & kMask; }
  void place(std::uint32_t s, std::uint32_t key, std::uint32_t n) {
    slot_key_[s] = key;
    slot_node_[s] = n;
    where_[n] = s;
  }
  void unlink(std::uint32_t n) {
    prev_[next_[n]] = prev_[n];
    next_[prev_[n]] = next_[n];
  }
  /// Empties slot `hole`, moving later entries of its probe run back.
  void erase(std::uint32_t hole) {
    slot_key_[hole] = kNone;
    for (std::uint32_t t = (hole + 1) & kMask; slot_key_[t] != kNone; t = (t + 1) & kMask) {
      if (((t - home(slot_key_[t])) & kMask) >= ((t - hole) & kMask)) {
        place(hole, slot_key_[t], slot_node_[t]);
        slot_key_[t] = kNone;
        hole = t;
      }
    }
  }

  std::vector<std::uint32_t> slot_key_ = std::vector<std::uint32_t>(kSlots);
  std::vector<std::uint32_t> slot_node_ = std::vector<std::uint32_t>(kSlots);
  std::vector<std::uint32_t> where_ = std::vector<std::uint32_t>(kBlocks);
  std::vector<std::uint32_t> prev_ = std::vector<std::uint32_t>(kBlocks + 1);
  std::vector<std::uint32_t> next_ = std::vector<std::uint32_t>(kBlocks + 1);
  volatile std::uint32_t sink_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads: what the seed decides, and the fixed serving configuration.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool quick = false;  // self-test size
  std::string spans_path;
};

enum class Loop { kTicks, kChurn };

struct Workload {
  std::string name;
  Loop loop = Loop::kTicks;
  core::ClusterOptions cluster;
  std::int64_t plan_m = 1024;  // M the partitioner plans for and sessions size buffers against
  std::string partitioner;
  bool threads = false;
  std::int64_t rebalance_every = 0;
  std::int64_t tenants = 0;  // Loop::kTicks
  std::int64_t ticks = 0;    // Loop::kTicks
};

/// Everything generated from the seed -- the only input the program sees.
struct Inputs {
  std::vector<sdf::SdfGraph> graphs;                  // one plan each
  std::vector<std::size_t> tenant_graph;              // Loop::kTicks
  std::vector<std::vector<std::int64_t>> arrivals;    // [tick][tenant]
  std::vector<workloads::SessionEvent> churn;         // Loop::kChurn
};

Workload make_workload(const Options& o) {
  Workload w;
  w.name = o.workload;
  if (w.name == "serve-threads") {
    // Loads runtime::WorkerPool threading, the sharded iomodel LLC, and
    // per-tick core coordination (rebalance + run_threads). Run by the
    // self-test but kept out of BENCHMARK.json (see perfbench/run.py).
    w.cluster.workers = 4;
    w.cluster.l1 = {4096, 8};
    w.cluster.llc_words = 65536;
    w.cluster.llc_shards = 16;
    w.cluster.placement = "affinity";
    w.cluster.cost_model = "llc-shared";
    w.partitioner = "pipeline-dp";
    w.threads = true;
    w.rebalance_every = 8;
    w.tenants = 16;
    w.ticks = o.quick ? 32 : 128;
  } else if (w.name == "churn-swap") {
    // Each session fires little: time goes to core admit/close/adapt and
    // the session swap codec. Bypasses threads and large graphs.
    w.loop = Loop::kChurn;
    w.cluster.workers = 4;
    w.cluster.l1 = {4096, 8};
    w.cluster.placement = "adaptive";
    w.cluster.admission = "bounded-live";
    w.cluster.budget.max_live_sessions = 64;
    w.cluster.swap = true;
    w.cluster.band_words = std::int64_t{1} << 20;
    w.partitioner = "pipeline-dp";
  } else if (w.name == "graph-scale") {
    // Time goes to runtime::Engine per-firing work and OnlinePolicy
    // per-step replanning on a ~2000-actor dag; planning lands in set-up.
    // Bypasses threads, swap and the LLC.
    w.cluster.workers = 2;
    w.cluster.l1 = {4096, 8};
    w.partitioner = "dag-greedy";
    w.tenants = 2;
    // M-batch: a component runs once M = 1024 inputs wait, so each session
    // fires one batch at tick 7 and strands the last 4 ticks' inputs.
    w.ticks = 12;
  } else {
    throw Error("unknown --workload '" + w.name +
                "'; valid workloads: serve-threads churn-swap graph-scale");
  }
  return w;
}

Inputs generate(const Workload& w, const Options& o, Tracer& tr) {
  constexpr std::int64_t kBurst = 256;
  constexpr std::int64_t kPeriod = 4;
  Inputs in;
  Rng rng(o.seed);
  const auto add_graph = [&](const char* fn, auto&& make) {
    in.graphs.push_back(tr.call(Layer::kWorkloads, fn, make));
  };
  if (w.name == "graph-scale") {
    // Narrow and deep with equal module states, so the seed's edges
    // average out over many layers and components come out equally sized.
    workloads::LayeredSpec spec;
    spec.layers = o.quick ? 50 : 500;
    spec.width = 4;
    spec.state_lo = spec.state_hi = 160;
    add_graph("layered_homogeneous_dag",
              [&] { return workloads::layered_homogeneous_dag(spec, rng); });
  } else if (w.name == "serve-threads") {
    // The three cluster_server shapes: deep uniform, heavy tailed, short and fat.
    add_graph("uniform_pipeline", [] { return workloads::uniform_pipeline(20, 150); });
    add_graph("heavy_tail_pipeline", [] { return workloads::heavy_tail_pipeline(16, 48, 500, 4); });
    add_graph("uniform_pipeline", [] { return workloads::uniform_pipeline(6, 600); });
  } else {
    add_graph("uniform_pipeline", [] { return workloads::uniform_pipeline(4, 48); });
    add_graph("heavy_tail_pipeline", [] { return workloads::heavy_tail_pipeline(6, 16, 128, 3); });
    add_graph("uniform_pipeline", [] { return workloads::uniform_pipeline(3, 96); });
  }

  if (w.loop == Loop::kChurn) {
    workloads::ChurnOptions churn;
    churn.sessions = o.quick ? 400 : 5000;
    churn.max_concurrent = 256;
    churn.pushes_per_session = 4;
    churn.items_per_push = 16;
    churn.seed = rng.next();
    in.churn = tr.call(Layer::kWorkloads, "churn_trace", [&] { return workloads::churn_trace(churn); });
    return in;
  }

  // serve-threads: four phase groups of four tenants, each group bursting
  // every 4th tick, so every tick brings four bursts the workers can serve
  // in parallel and thread start-up is not most of a tick. The seed deals
  // the tenants into groups and draws every burst's size (256 +- 64 items),
  // so the load of a job barely depends on it.
  std::vector<std::int64_t> phases(static_cast<std::size_t>(w.tenants));
  for (std::size_t t = 0; t < phases.size(); ++t) {
    const auto j = static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(t)));
    phases[t] = phases[j];
    phases[j] = static_cast<std::int64_t>(t) % kPeriod;
  }
  std::vector<workloads::ArrivalPattern> patterns;
  for (std::int64_t t = 0; t < w.tenants; ++t) {
    in.tenant_graph.push_back(static_cast<std::size_t>(t) % in.graphs.size());
    const std::int64_t phase = phases[static_cast<std::size_t>(t)];
    if (w.name == "serve-threads") {
      patterns.push_back(tr.call(Layer::kWorkloads, "bursty_arrivals", [&] {
        return workloads::phase_shift_arrivals(workloads::bursty_arrivals(kBurst, kPeriod), phase);
      }));
    } else {
      patterns.push_back(
          tr.call(Layer::kWorkloads, "steady_arrivals", [] { return workloads::steady_arrivals(128); }));
    }
  }
  in.arrivals = tr.call(Layer::kWorkloads, "arrival_table", [&] {
    std::vector<std::vector<std::int64_t>> table(static_cast<std::size_t>(w.ticks));
    for (std::int64_t tick = 0; tick < w.ticks; ++tick) {
      for (const auto& pattern : patterns) table[static_cast<std::size_t>(tick)].push_back(pattern(tick));
    }
    return table;
  });
  if (w.name == "serve-threads") {
    for (auto& row : in.arrivals) {
      for (std::int64_t& items : row) items += items > 0 ? rng.uniform(-kBurst / 4, kBurst / 4) : 0;
    }
  }
  return in;
}

// ---------------------------------------------------------------------------
// One repetition: set-up, then the timed phase.

/// Counters that must repeat exactly across repetitions, between traced and
/// untraced runs, and for a given seed across processes.
struct Counts {
  std::int64_t plans = 0, components = 0;
  std::int64_t admits = 0, admits_rejected = 0, closes = 0;
  std::int64_t pushes = 0, push_items = 0, items_accepted = 0;
  std::int64_t rebalances = 0, runs = 0, rounds = 0, steps = 0;
  std::int64_t firings = 0, source_firings = 0, sink_firings = 0;
  std::int64_t l1_accesses = 0, l1_misses = 0, llc_accesses = 0;
  std::int64_t migrations = 0, auto_migrations = 0, migration_noops = 0;
  std::int64_t swap_outs = 0, swap_ins = 0, swap_peak_bytes = 0;
  std::int64_t peak_live = 0, peak_resident_words = 0;
  std::int64_t priced_steps = 0, p50_cycles = 0, p95_cycles = 0, p99_cycles = 0, max_cycles = 0;
  std::int64_t makespan = 0;
  double imbalance = 0;

  friend bool operator==(const Counts&, const Counts&) = default;
};

/// What set-up leaves for the timed phase.
struct Setup {
  Inputs in;
  std::vector<partition::Partition> parts;  // one per graph
  std::unique_ptr<core::Cluster> cluster;
  std::vector<core::TenantId> ids;          // initial admits
};

struct Rep {
  double setup_s = 0;
  double timed_s = 0;  // the timed phase: ticks, drain_all, report, close
  std::vector<double> tick_s;  // released once condensed into the fields below
  double tick_p50_s = 0, tick_p99_s = 0;
  std::size_t ticks = 0;
  bool sums = false;  // aggregate == tenants + retired
  Counts counts;
  std::int64_t llc_misses = 0;  // varies with real thread interleaving
  core::ClusterReport report;   // taken before any close; kept for the first repetition of a kind
  std::vector<Span> spans;
  double timed_begin = 0;  // now_s()
  double scale = 1;        // host times -> nominal host speed (see ReferenceJob)
};

/// Failure accounting: attempted operations are admits, push items and
/// checks; failures are rejected admits, refused items, errors and failed
/// checks.
struct Tally {
  std::int64_t admits = 0, push_items = 0, checks = 0, errors = 0;
  std::int64_t failed = 0;
  bool correct = true;

  std::int64_t attempted() const { return admits + push_items + checks + errors; }
  void check(bool ok, const std::string& what) {
    ++checks;
    std::cout << "check " << what << ": " << (ok ? "ok" : "FAILED") << "\n";
    if (!ok) {
      ++failed;
      correct = false;
    }
  }
};

struct Runner {
  const Workload& w;
  const Options& o;
  Tally& tally;

  /// Generates the inputs, plans every graph, builds the cluster and makes
  /// the initial admits. `swap` = false is the swap-off replay: no swap
  /// tier and unbounded admission.
  Setup setup(Tracer& tr, bool swap, Counts& c) {
    core::ClusterOptions copts = w.cluster;
    if (!swap) {
      copts.swap = false;
      copts.admission = "unbounded";
    }
    return tr.call(Layer::kDriver, "setup", [&] {
      Setup s;
      s.in = tr.call(Layer::kDriver, "generate", [&] { return generate(w, o, tr); });
      core::PlannerOptions popts;
      popts.cache = {w.plan_m, 8};
      for (const sdf::SdfGraph& g : s.in.graphs) {
        const core::Planner planner =
            tr.call(Layer::kPartition, "Planner", [&] { return core::Planner(g, popts); });
        s.parts.push_back(
            tr.call(Layer::kPartition, "plan", [&] { return planner.plan(w.partitioner); }).partition);
        ++c.plans;
        c.components += s.parts.back().num_components;
      }
      s.cluster = tr.call(Layer::kCore, "Cluster", [&] { return std::make_unique<core::Cluster>(copts); });
      for (std::size_t t = 0; t < s.in.tenant_graph.size(); ++t) {
        const std::size_t g = s.in.tenant_graph[t];
        s.ids.push_back(
            admit(tr, *s.cluster, "tenant-" + std::to_string(t), s.in.graphs[g], s.parts[g], c));
      }
      return s;
    });
  }

  /// One repetition. `threads` / `swap` override the workload for the
  /// equivalence replays.
  Rep run(bool traced, bool threads, bool swap) {
    Rep rep;
    Tracer tr(traced);
    Counts& c = rep.counts;
    const double setup_begin = now_s();
    Setup s = setup(tr, swap, c);
    rep.setup_s = now_s() - setup_begin;

    rep.timed_begin = now_s();
    if (w.loop == Loop::kTicks) {
      serve_ticks(tr, *s.cluster, s.in, s.ids, threads, rep);
    } else {
      serve_churn(tr, *s.cluster, s.in, s.parts, swap, rep);
    }
    tr.call(Layer::kCore, "drain_all", [&] { s.cluster->drain_all(); });
    rep.report = tr.call(Layer::kCore, "report", [&] { return s.cluster->report(); });
    for (const core::TenantId id : s.ids) {
      if (id == core::kNoTenant) continue;
      tr.call(Layer::kCore, "close", [&] { s.cluster->close(id); });
      ++c.closes;
    }
    rep.timed_s = now_s() - rep.timed_begin;

    fill_counts(rep.report, c);
    rep.llc_misses = rep.report.llc.misses;
    rep.spans = tr.take();
    return rep;
  }

  core::TenantId admit(Tracer& tr, core::Cluster& cluster, std::string name,
                       const sdf::SdfGraph& g, const partition::Partition& p, Counts& c) {
    ++tally.admits;
    ++c.admits;
    const core::TenantId id =
        tr.call(Layer::kCore, "admit", [&] { return cluster.admit(std::move(name), g, p, {}, w.plan_m); });
    if (id == core::kNoTenant) {
      ++c.admits_rejected;
      ++tally.failed;
    }
    return id;
  }

  void push(Tracer& tr, core::Cluster& cluster, core::TenantId id, std::int64_t items, Counts& c) {
    tally.push_items += items;
    c.push_items += items;
    if (id == core::kNoTenant) {  // its admit was rejected: the items are refused
      tally.failed += items;
      return;
    }
    ++c.pushes;
    const std::int64_t accepted = tr.call(Layer::kCore, "push", [&] { return cluster.push(id, items); });
    c.items_accepted += accepted;
    tally.failed += items - accepted;
  }

  void run_cluster(Tracer& tr, core::Cluster& cluster, bool threads, Counts& c) {
    ++c.runs;
    if (threads) {
      tr.call(Layer::kCore, "run_threads", [&] { return cluster.run_threads(); });
    } else {
      tr.call(Layer::kCore, "run_until_idle", [&] { return cluster.run_until_idle(); });
    }
  }

  void serve_ticks(Tracer& tr, core::Cluster& cluster, const Inputs& in,
                   const std::vector<core::TenantId>& ids, bool threads, Rep& rep) {
    Counts& c = rep.counts;
    rep.tick_s.reserve(in.arrivals.size());
    for (std::size_t tick = 0; tick < in.arrivals.size(); ++tick) {
      const double begin = now_s();
      tr.call(Layer::kDriver, "tick", [&] {
        for (std::size_t t = 0; t < ids.size(); ++t) {
          if (in.arrivals[tick][t] > 0) push(tr, cluster, ids[t], in.arrivals[tick][t], c);
        }
        if (w.rebalance_every > 0 && static_cast<std::int64_t>(tick) % w.rebalance_every == 0) {
          ++c.rebalances;
          tr.call(Layer::kCore, "rebalance", [&] { return cluster.rebalance(); });
        }
        run_cluster(tr, cluster, threads, c);
      });
      rep.tick_s.push_back(now_s() - begin);
    }
  }

  /// One tick per churn event. Logical session s runs graph s % 3; with the
  /// swap tier on, every idle session is shed after each burst, so later
  /// bursts pay a rehydration.
  void serve_churn(Tracer& tr, core::Cluster& cluster, const Inputs& in,
                   const std::vector<partition::Partition>& parts, bool swap, Rep& rep) {
    Counts& c = rep.counts;
    std::unordered_map<std::int64_t, core::TenantId> live;
    rep.tick_s.reserve(in.churn.size());
    for (const workloads::SessionEvent& e : in.churn) {
      const double begin = now_s();
      tr.call(Layer::kDriver, "tick", [&] {
        switch (e.kind) {
          case workloads::SessionEvent::Kind::kOpen: {
            const std::size_t g = static_cast<std::size_t>(e.session) % in.graphs.size();
            live[e.session] = admit(tr, cluster, "sess-" + std::to_string(e.session),
                                    in.graphs[g], parts[g], c);
            break;
          }
          case workloads::SessionEvent::Kind::kPush:
            push(tr, cluster, live.at(e.session), e.items, c);
            run_cluster(tr, cluster, false, c);
            if (swap) tr.call(Layer::kSession, "swap_out_idle", [&] { return cluster.swap_out_idle(); });
            break;
          case workloads::SessionEvent::Kind::kClose: {
            const core::TenantId id = live.at(e.session);
            live.erase(e.session);
            if (id == core::kNoTenant) break;
            tr.call(Layer::kCore, "close", [&] { cluster.close(id); });
            ++c.closes;
            break;
          }
        }
      });
      rep.tick_s.push_back(now_s() - begin);
    }
  }

  static void fill_counts(const core::ClusterReport& r, Counts& c) {
    c.rounds = r.rounds;
    c.steps = r.steps;
    c.firings = r.aggregate.firings;
    c.source_firings = r.aggregate.source_firings;
    c.sink_firings = r.aggregate.sink_firings;
    c.l1_accesses = r.aggregate.cache.accesses;
    c.l1_misses = r.aggregate.cache.misses;
    c.llc_accesses = r.llc.accesses;
    c.migrations = r.migrations;
    c.auto_migrations = r.auto_migrations;
    c.migration_noops = r.migration_noops;
    c.swap_outs = r.lifecycle.swap_outs;
    c.swap_ins = r.lifecycle.swap_ins;
    c.swap_peak_bytes = r.swap_peak_stored_bytes;
    c.peak_live = r.lifecycle.peak_live;
    c.peak_resident_words = r.lifecycle.peak_resident_words;
    c.priced_steps = r.aggregate.latency.count();
    c.p50_cycles = r.aggregate.latency.p50();
    c.p95_cycles = r.aggregate.latency.p95();
    c.p99_cycles = r.aggregate.latency.p99();
    c.max_cycles = r.aggregate.latency.max();
    c.makespan = r.makespan();
    c.imbalance = r.imbalance();
  }
};

// ---------------------------------------------------------------------------
// Checks.

bool aggregate_is_sum(const core::ClusterReport& r) {
  runtime::RunResult sum = r.retired;
  for (const auto& t : r.tenants) sum += t.totals;
  return sum == r.aggregate;
}

std::string json_without_lifecycle(const core::ClusterReport& r) {
  std::ostringstream full;
  r.write_json(full);
  std::istringstream lines(full.str());
  std::string out;
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"lifecycle\"") == std::string::npos) out += line + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Metrics.

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
  const char* better;
};

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " = " << format_number(m.value) << " " << m.unit << " ("
              << m.better << " is better)\n";
  }
}

std::vector<Metric> end_to_end(const std::vector<Rep>& reps, const std::vector<double>& setups,
                               double peak_rss_mb) {
  // Every host figure is a median over repetitions, the tick quantiles
  // too: a burst of host noise then moves one repetition's figure only.
  // Host times are scaled to the nominal host speed first.
  std::vector<double> firings, accesses, sessions, p50, p99;
  for (const Rep& r : reps) {
    const double timed_s = r.scale * r.timed_s;
    firings.push_back(ratio(static_cast<double>(r.counts.firings), timed_s));
    accesses.push_back(ratio(static_cast<double>(r.counts.l1_accesses), timed_s));
    sessions.push_back(ratio(static_cast<double>(r.counts.closes), timed_s));
    p50.push_back(r.scale * r.tick_p50_s);
    p99.push_back(r.scale * r.tick_p99_s);
  }
  const Counts& c = reps.front().counts;
  std::cout << "tick samples: " << reps.front().ticks << " per repetition, "
            << reps.size() << " repetitions\n";
  return {
      {"setup_s", median(setups), "s", "lower"},
      {"firings_per_s", median(firings), "1/s", "higher"},
      {"accesses_per_s", median(accesses), "1/s", "higher"},
      {"sessions_per_s", median(sessions), "1/s", "higher"},
      {"tick_p50_ms", 1e3 * median(p50), "ms", "lower"},
      {"tick_p99_ms", 1e3 * median(p99), "ms", "lower"},
      {"peak_rss_mb", peak_rss_mb, "MB", "lower"},
      {"model_misses_per_output", ratio(static_cast<double>(c.l1_misses), static_cast<double>(c.sink_firings)),
       "misses/output", "lower"},
      {"model_p99_cycles", static_cast<double>(c.p99_cycles), "cycles", "lower"},
      {"model_outputs_per_kcycle",
       ratio(1000.0 * static_cast<double>(c.sink_firings), static_cast<double>(c.makespan)),
       "outputs/kcycle", "higher"},
  };
}

std::vector<Metric> per_layer(const std::vector<Rep>& traced, const std::vector<Rep>& untraced,
                              double replay_run_s, bool threads, double reference_ms) {
  std::map<std::string, std::vector<double>> self;
  std::vector<double> coverage, traced_s, untraced_s;
  for (const Rep& r : traced) {
    for (const auto& [key, s] : self_times(r.spans)) self[key].push_back(r.scale * s);
    double top = 0;  // top-level spans inside the timed phase
    for (const Span& s : r.spans) {
      if (s.parent < 0 && s.start >= r.timed_begin) top += s.end - s.start;
    }
    coverage.push_back(ratio(top, r.timed_s));
    traced_s.push_back(r.scale * r.timed_s);
  }
  for (const Rep& r : untraced) untraced_s.push_back(r.scale * r.timed_s);
  const auto t = [&](const std::string& key) {
    // A layer self time: median over traced repetitions (absent = 0).
    const auto it = self.find(key);
    if (it == self.end()) return 0.0;
    std::vector<double> v = it->second;
    v.resize(traced.size(), 0.0);
    return median(v);
  };
  const Counts& c = traced.front().counts;
  const double run_s = t("core.run_threads") + t("core.run_until_idle");
  const double exec_s = run_s + t("core.drain_all");
  const auto n = [](std::int64_t v) { return static_cast<double>(v); };
  const double llc_misses = n(traced.front().llc_misses);
  return {
      {"workloads.gen_s", t("workloads"), "s", "lower"},
      {"partition.plan_s", t("partition"), "s", "lower"},
      {"partition.plans", n(c.plans), "count", "higher"},
      {"partition.components", n(c.components), "count", "lower"},
      {"core.build_s", t("core.Cluster"), "s", "lower"},
      {"core.admit_s", t("core.admit"), "s", "lower"},
      {"core.admits", n(c.admits), "count", "higher"},
      {"core.close_s", t("core.close"), "s", "lower"},
      {"core.closes", n(c.closes), "count", "higher"},
      {"core.push_s", t("core.push"), "s", "lower"},
      {"core.pushes", n(c.pushes), "count", "higher"},
      {"core.rebalance_s", t("core.rebalance"), "s", "lower"},
      {"core.rebalances", n(c.rebalances), "count", "lower"},
      {"core.run_s", run_s, "s", "lower"},
      {"core.runs", n(c.runs), "count", "higher"},
      {"core.rounds", n(c.rounds), "count", "lower"},
      {"core.steps", n(c.steps), "count", "lower"},
      {"core.drain_s", t("core.drain_all"), "s", "lower"},
      {"core.report_s", t("core.report"), "s", "lower"},
      {"driver.self_s", t("driver"), "s", "lower"},
      {"runtime.firings", n(c.firings), "count", "higher"},
      {"runtime.ns_per_firing", 1e9 * ratio(exec_s, n(c.firings)), "ns", "lower"},
      {"runtime.thread_speedup", threads ? ratio(replay_run_s, run_s) : 0.0, "ratio", "higher"},
      {"runtime.imbalance", c.imbalance, "ratio", "lower"},
      {"schedule.firings_per_step", ratio(n(c.firings), n(c.steps)), "count", "higher"},
      {"schedule.stranded_inputs", n(c.items_accepted - c.source_firings), "count", "lower"},
      {"iomodel.l1_accesses", n(c.l1_accesses), "count", "lower"},
      {"iomodel.l1_miss_ratio", ratio(n(c.l1_misses), n(c.l1_accesses)), "ratio", "lower"},
      {"iomodel.ns_per_access", 1e9 * ratio(exec_s, n(c.l1_accesses)), "ns", "lower"},
      {"iomodel.llc_accesses", n(c.llc_accesses), "count", "lower"},
      {"iomodel.llc_miss_ratio", ratio(llc_misses, n(c.llc_accesses)), "ratio", "lower"},
      {"placement.migrations", n(c.migrations), "count", "lower"},
      {"placement.auto_migrations", n(c.auto_migrations), "count", "lower"},
      {"placement.migration_noops", n(c.migration_noops), "count", "lower"},
      {"session.swap_out_s", t("session.swap_out_idle"), "s", "lower"},
      {"session.swap_outs", n(c.swap_outs), "count", "lower"},
      {"session.swap_ins", n(c.swap_ins), "count", "lower"},
      {"session.swap_peak_bytes", n(c.swap_peak_bytes), "B", "lower"},
      {"session.peak_live", n(c.peak_live), "count", "lower"},
      {"session.peak_resident_words", n(c.peak_resident_words), "words", "lower"},
      {"session.admissions_rejected", n(c.admits_rejected), "count", "lower"},
      {"latency.priced_steps", n(c.priced_steps), "count", "higher"},
      {"latency.p50_cycles", n(c.p50_cycles), "cycles", "lower"},
      {"latency.p95_cycles", n(c.p95_cycles), "cycles", "lower"},
      {"latency.max_cycles", n(c.max_cycles), "cycles", "lower"},
      {"trace.spans", n(static_cast<std::int64_t>(traced.front().spans.size())), "count", "lower"},
      {"trace.coverage", median(coverage), "ratio", "higher"},
      {"trace.overhead", ratio(median(traced_s), median(untraced_s)), "ratio", "lower"},
      {"host.reference_ms", reference_ms, "ms", "lower"},
  };
}

// ---------------------------------------------------------------------------
// Host context.

/// True when the build is one whose timings may be reported: optimized,
/// no contract-audit walks, no sanitizer.
bool check_build() {
  bool ok = true;
  const auto refuse = [&](const char* why) {
    std::cerr << "perfbench: refusing to report timings: " << why << "\n";
    ok = false;
  };
#if !defined(__OPTIMIZE__)
  refuse("the build is not optimized");
#endif
#if defined(CCS_AUDIT_ENABLED)
  refuse("CCS_AUDIT is on");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  refuse("a sanitizer is on");
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  refuse("a sanitizer is on");
#endif
#endif
  if (std::string(PERFBENCH_SANITIZE) != "") refuse("CCS_SANITIZE is set");
  return ok;
}

void print_host() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int usable = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : -1;
  std::cout << "host: cpus " << std::thread::hardware_concurrency() << " (usable " << usable
            << "), compiler " << __VERSION__ << ", build " << PERFBENCH_BUILD_TYPE << ", flags \""
            << PERFBENCH_CXX_FLAGS << "\", audit off, sanitizer none\n";
}

/// Peak resident set of this process image. VmHWM rather than getrusage's
/// ru_maxrss, which Linux carries over from the launcher across exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // in kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // in KiB
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    try {
      if (key == "--workload") {
        o.workload = value;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
      } else if (key == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else if (key == "--quick") {
        o.quick = true;
      } else if (key == "--spans") {
        o.spans_path = value;
      } else {
        throw Error("unknown argument '" + arg + "'");
      }
    } catch (const std::logic_error&) {
      throw Error("bad value in '" + arg + "'");
    }
  }
  if (o.workload.empty()) throw Error("--workload is required");
  if (!(o.seconds > 0)) throw Error("--seconds must be positive");
  return o;
}

int run(const Options& o) {
  const Workload w = make_workload(o);
  Tally tally;
  Runner runner{w, o, tally};
  std::vector<Rep> untraced, traced;
  std::vector<double> setups;  // untraced ones, scaled
  ReferenceJob reference;
  std::vector<double> reference_ms;
  // Times the reference job again; returns the scale for what ran since the
  // previous time.
  const auto rescale = [&] {
    reference_ms.push_back(reference.run_ms());
    return ReferenceJob::kNominalMs / std::sqrt(reference_ms.end()[-2] * reference_ms.back());
  };

  // A warm-up repetition, then repetitions until the time is spent;
  // --trace=1 alternates untraced and traced ones. Every run makes at least
  // two of each kind it reports. The reference job runs once before the
  // first repetition and once after each.
  Counts warmup;
  const double begin = now_s();
  const auto elapsed = [&] { return now_s() - begin; };
  double last_s = 0;
  const auto enough = [&] {
    const bool kinds = untraced.size() >= 2 && (!o.trace || traced.size() >= 2);
    return kinds && elapsed() + last_s > o.seconds;
  };
  try {
    warmup = runner.run(false, w.threads, w.cluster.swap).counts;
    reference_ms.push_back(reference.run_ms());
    while (!enough()) {
      const bool trace_this = o.trace && traced.size() < untraced.size();
      const double rep_begin = elapsed();
      Rep rep = runner.run(trace_this, w.threads, w.cluster.swap);
      std::vector<Rep>& kind = trace_this ? traced : untraced;
      // Condensed at once, so the driver's memory stays flat over the run
      // and peak_rss_mb does not grow with the number of repetitions.
      rep.tick_p50_s = quantile(rep.tick_s, 0.50);
      rep.tick_p99_s = quantile(rep.tick_s, 0.99);
      rep.ticks = rep.tick_s.size();
      std::vector<double>().swap(rep.tick_s);
      rep.sums = aggregate_is_sum(rep.report);
      if (!kind.empty()) rep.report = core::ClusterReport{};
      std::vector<double> rep_setups;
      if (!trace_this) rep_setups.push_back(rep.setup_s);
      if (!o.trace) {
        // Extra set-ups after every repetition, worth at least 2% of its
        // time, so that setup_s samples the host over the whole run.
        for (double spent = 0; spent < 0.02 * (elapsed() - rep_begin);) {
          Tracer off(false);
          Counts unused;
          const double setup_begin = now_s();
          const Setup done = runner.setup(off, w.cluster.swap, unused);
          rep_setups.push_back(now_s() - setup_begin);
          spent += rep_setups.back();
        }
      }
      rep.scale = rescale();
      for (const double setup_s : rep_setups) setups.push_back(rep.scale * setup_s);
      last_s = elapsed() - rep_begin;
      kind.push_back(std::move(rep));
    }
  } catch (const std::exception& e) {
    std::cout << "error: " << e.what() << "\n";
    ++tally.errors;
    ++tally.failed;
    tally.correct = false;
  }
  const double rss_mb = peak_rss_mb();  // before the replays below

  double replay_run_s = 0;
  if (!untraced.empty()) {
    const Rep& first = untraced.front();
    const auto all_equal = [&](const std::vector<Rep>& reps) {
      return std::all_of(reps.begin(), reps.end(), [&](const Rep& r) { return r.counts == first.counts; });
    };
    tally.check(all_equal(untraced) && warmup == first.counts,
                "counters repeat across the warm-up and " + std::to_string(untraced.size()) +
                    " untraced repetitions");
    if (o.trace) tally.check(all_equal(traced), "tracing changes no counter");
    bool sums = true;
    for (const Rep& r : untraced) sums = sums && r.sums;
    for (const Rep& r : traced) sums = sums && r.sums;
    tally.check(sums, "aggregate equals the sum over tenants plus retired");
    try {
      if (w.name == "serve-threads") {
        // threads == virtual time: per-tenant totals and placement.
        const Rep replay = runner.run(true, false, w.cluster.swap);
        const double scale = rescale();
        for (const Span& s : replay.spans) {
          if (std::string(s.function) == "run_until_idle") replay_run_s += scale * (s.end - s.start);
        }
        bool same = replay.report.aggregate == first.report.aggregate &&
                    replay.report.tenants.size() == first.report.tenants.size();
        for (std::size_t i = 0; same && i < first.report.tenants.size(); ++i) {
          same = replay.report.tenants[i].totals == first.report.tenants[i].totals &&
                 replay.report.tenants[i].worker == first.report.tenants[i].worker;
        }
        tally.check(same, "threads equal a virtual-time replay");
      } else if (w.name == "churn-swap") {
        const Rep replay = runner.run(false, false, false);
        tally.check(json_without_lifecycle(replay.report) == json_without_lifecycle(first.report),
                    "swap-on report equals a swap-off replay apart from lifecycle");
      } else {
        bool balanced = first.counts.firings > 0 && !first.report.tenants.empty();
        for (const auto& t : first.report.tenants) {
          balanced = balanced && t.totals.sink_firings == t.totals.source_firings;
        }
        tally.check(balanced, "sink firings equal source firings per tenant, firings above zero");
      }
    } catch (const std::exception& e) {
      std::cout << "error: " << e.what() << "\n";
      ++tally.errors;
      ++tally.failed;
      tally.correct = false;
    }
  }
  tally.correct = tally.correct && tally.failed == 0 && !untraced.empty() && (!o.trace || !traced.empty());

  std::vector<Metric> metrics;
  if (!untraced.empty()) {
    const Rep& r = untraced.front();
    std::cout << "firings/s per untraced repetition, unscaled:";
    for (const Rep& rep : untraced) std::cout << " " << std::llround(ratio(static_cast<double>(rep.counts.firings), rep.timed_s));
    std::cout << "\nhost time scale per untraced repetition (" << ReferenceJob::kNominalMs
              << " ms / reference job time):";
    for (const Rep& rep : untraced) {
      char buf[16];
      std::snprintf(buf, sizeof buf, " %.3f", rep.scale);
      std::cout << buf;
    }
    std::cout << "\nreference job: median " << format_number(median(reference_ms)) << " ms over "
              << reference_ms.size() << " runs\n";
    std::cout << "workload " << w.name << " seed " << o.seed << ": " << untraced.size()
              << " untraced + " << traced.size() << " traced repetitions, " << r.counts.firings
              << " firings and " << r.counts.closes << " sessions per repetition\n";
    const std::vector<Metric> e2e = end_to_end(untraced, setups, rss_mb);
    if (o.trace && !traced.empty()) {
      std::cout << "end-to-end metrics of the untraced repetitions (for reference):\n";
      print_metrics(e2e);
      metrics = per_layer(traced, untraced, replay_run_s, w.threads, median(reference_ms));
      if (!o.spans_path.empty()) write_chrome_trace(o.spans_path, traced.front().spans);
    } else {
      metrics = e2e;
    }
    print_metrics(metrics);
  }
  std::cout << "failed_share = " << format_number(ratio(static_cast<double>(tally.failed),
                                                        static_cast<double>(tally.attempted())))
            << " (" << tally.failed << " failed of " << tally.attempted() << " attempted: "
            << tally.admits << " admits, " << tally.push_items << " push items, " << tally.checks
            << " checks, " << tally.errors << " errors)\n";

  std::cout << "{\"correct\": " << (tally.correct ? "true" : "false")
            << ", \"attempted\": " << std::max<std::int64_t>(tally.attempted(), 1)
            << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << "\"" << metrics[i].name << "\": {\"value\": "
              << format_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return tally.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  print_host();
  if (!check_build()) return 3;
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
