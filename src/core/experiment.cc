#include "core/experiment.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/cluster.h"
#include "core/server.h"
#include "iomodel/cache.h"
#include "schedule/schedule.h"
#include "util/error.h"
#include "util/format.h"

namespace ccs::core {

namespace {

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string fmt_double(double v) {
  std::ostringstream os;
  os << std::setprecision(15) << v;
  return os.str();
}

}  // namespace

struct Experiment::Coordinate {
  std::string workload;
  iomodel::CacheConfig cache;
  std::string strategy;
  bool is_baseline = false;
  bool is_online = false;
  bool is_cluster = false;
  std::string arrival;
  std::int32_t tenants = 0;
  std::int32_t workers = 0;
  std::string placement;
  std::string cost_model;
  std::int64_t t_multiplier = 1;
};

Experiment::Experiment(SweepSpec spec, const workloads::Registry* workload_registry,
                       const partition::Registry* partitioner_registry,
                       const schedule::Registry* scheduler_registry,
                       const workloads::ArrivalRegistry* arrival_registry)
    : spec_(std::move(spec)),
      workloads_(workload_registry != nullptr ? workload_registry
                                              : &workloads::Registry::global()),
      partitioners_(partitioner_registry != nullptr ? partitioner_registry
                                                    : &partition::Registry::global()),
      schedulers_(scheduler_registry != nullptr ? scheduler_registry
                                                : &schedule::Registry::global()),
      arrivals_(arrival_registry != nullptr ? arrival_registry
                                            : &workloads::ArrivalRegistry::global()) {}

std::vector<Experiment::Coordinate> Experiment::enumerate() const {
  std::vector<Coordinate> out;
  const std::vector<std::int64_t> t_mults =
      spec_.t_multipliers.empty() ? std::vector<std::int64_t>{1} : spec_.t_multipliers;
  const std::vector<std::int32_t> tenant_counts = spec_.online.tenant_counts.empty()
                                                      ? std::vector<std::int32_t>{1}
                                                      : spec_.online.tenant_counts;
  const std::vector<std::int32_t> cluster_tenant_counts =
      spec_.cluster.tenant_counts.empty() ? std::vector<std::int32_t>{1}
                                          : spec_.cluster.tenant_counts;
  const std::vector<std::int32_t> cluster_worker_counts =
      spec_.cluster.worker_counts.empty() ? std::vector<std::int32_t>{1}
                                          : spec_.cluster.worker_counts;
  const std::vector<std::string> cluster_placements =
      spec_.cluster.placements.empty() ? std::vector<std::string>{"round-robin"}
                                       : spec_.cluster.placements;
  const std::vector<std::string> cluster_cost_models =
      spec_.cluster.cost_models.empty() ? std::vector<std::string>{"uniform"}
                                        : spec_.cluster.cost_models;
  for (const std::string& workload : spec_.workloads) {
    for (const iomodel::CacheConfig& cache : spec_.caches) {
      for (const std::string& partitioner : spec_.partitioners) {
        for (const std::int64_t t : t_mults) {
          Coordinate at;
          at.workload = workload;
          at.cache = cache;
          at.strategy = partitioner;
          at.t_multiplier = t;
          out.push_back(std::move(at));
        }
      }
      for (const std::string& baseline : spec_.baselines) {
        Coordinate at;
        at.workload = workload;
        at.cache = cache;
        at.strategy = baseline;
        at.is_baseline = true;
        out.push_back(std::move(at));
      }
      for (const std::string& arrival : spec_.online.arrivals) {
        for (const std::int32_t tenants : tenant_counts) {
          Coordinate at;
          at.workload = workload;
          at.cache = cache;
          at.strategy = spec_.online.online_policy;
          at.is_online = true;
          at.arrival = arrival;
          at.tenants = tenants;
          out.push_back(std::move(at));
        }
      }
      for (const std::string& arrival : spec_.cluster.arrivals) {
        for (const std::int32_t tenants : cluster_tenant_counts) {
          for (const std::int32_t workers : cluster_worker_counts) {
            for (const std::string& placement : cluster_placements) {
              for (const std::string& cost_model : cluster_cost_models) {
                Coordinate at;
                at.workload = workload;
                at.cache = cache;
                at.strategy = spec_.cluster.online_policy;
                at.is_cluster = true;
                at.arrival = arrival;
                at.tenants = tenants;
                at.workers = workers;
                at.placement = placement;
                at.cost_model = cost_model;
                out.push_back(std::move(at));
              }
            }
          }
        }
      }
    }
  }
  return out;
}

std::size_t Experiment::cell_count() const { return enumerate().size(); }

CellResult Experiment::run_cell(const Coordinate& at) const {
  CellResult cell;
  cell.workload = at.workload;
  cell.cache = at.cache;
  cell.strategy = at.strategy;
  cell.is_baseline = at.is_baseline;
  cell.is_online = at.is_online;
  cell.is_cluster = at.is_cluster;
  cell.arrival = at.arrival;
  cell.tenants = at.tenants;
  cell.workers = at.workers;
  cell.placement = at.placement;
  cell.cost_model = at.cost_model;
  cell.t_multiplier = at.t_multiplier;
  try {
    if (at.is_online || at.is_cluster) {
      if (at.is_online) {
        run_online_cell(at, cell);
      } else {
        run_cluster_cell(at, cell);
      }
      cell.misses_per_input = cell.run.misses_per_input();
      cell.misses_per_output = cell.run.misses_per_output();
      cell.ok = true;
      return cell;
    }
    const sdf::SdfGraph graph = workloads_->build(at.workload);

    schedule::Schedule sched;
    if (at.is_baseline) {
      schedule::SchedulerContext ctx;
      ctx.cache_words = at.cache.capacity_words;
      ctx.block_words = at.cache.block_words;
      sched = schedulers_->build(at.strategy, graph, ctx);
      cell.resolved_strategy = at.strategy;
    } else {
      PlannerOptions opts;
      opts.cache = at.cache;
      opts.c_bound = spec_.c_bound;
      opts.partitioner = at.strategy;
      opts.t_multiplier = at.t_multiplier;
      opts.exact_max_nodes = spec_.exact_max_nodes;
      opts.seed = spec_.seed;
      const Planner planner(graph, opts, partitioners_);
      Plan plan = planner.plan();
      cell.resolved_strategy = plan.partitioner_name;
      cell.components = plan.partition.num_components;
      cell.batch_t = plan.batch_t;
      cell.bandwidth = plan.partition_bandwidth.to_double();
      cell.predicted_misses_per_input = plan.predicted.misses_per_input;
      sched = std::move(plan.schedule);
    }
    cell.schedule_name = sched.name;
    cell.buffer_words = sched.total_buffer_words();

    // Measure on the augmentation-factor cache (Theorem 5's regime). The
    // cell owns its graph, engine, and cache: nothing here is shared with
    // any other cell, which is what makes the sweep order- and
    // thread-count-independent.
    iomodel::CacheConfig sim = at.cache;
    sim.capacity_words = std::max<std::int64_t>(
        at.cache.block_words,
        static_cast<std::int64_t>(std::llround(spec_.sim_capacity_factor *
                                               static_cast<double>(at.cache.capacity_words))));
    validate_cache_geometry(sim);

    schedule::FiringProgram program = schedule::FiringProgram::encode(sched.period);
    program.repeat = schedule::periods_for_outputs(sched, spec_.target_outputs);
    iomodel::LruCache cache(sim);
    runtime::Engine engine(graph, sched.buffer_caps, cache, spec_.engine);
    cell.run = engine.run(program);
    // Further repetitions reuse the constructed engine against a fresh cold
    // cache (Engine::rebind_cache); every repetition must reproduce the
    // first bit-for-bit or the cell is flagged.
    for (std::int32_t rep = 1; rep < spec_.repetitions; ++rep) {
      iomodel::LruCache fresh(sim);
      engine.rebind_cache(fresh);
      const runtime::RunResult again = engine.run(program);
      if (again != cell.run) {
        throw Error("repetition " + std::to_string(rep) +
                    " diverged from the first measurement (nondeterministic strategy "
                    "or runtime)");
      }
    }
    cell.misses_per_input = cell.run.misses_per_input();
    cell.misses_per_output = cell.run.misses_per_output();
    cell.ok = true;
  } catch (const std::exception& e) {
    cell.ok = false;
    cell.error = e.what();
  }
  return cell;
}

void Experiment::run_online_cell(const Coordinate& at, CellResult& cell) const {
  const sdf::SdfGraph graph = workloads_->build(at.workload);

  // Plan once with the "auto" partitioner; every tenant serves this plan.
  PlannerOptions opts;
  opts.cache = at.cache;
  opts.c_bound = spec_.c_bound;
  opts.partitioner = "auto";
  opts.exact_max_nodes = spec_.exact_max_nodes;
  opts.seed = spec_.seed;
  const Planner planner(graph, opts, partitioners_);
  const Plan plan = planner.plan();
  cell.resolved_strategy = at.strategy == "auto"
                               ? schedule::resolve_auto_policy(graph)
                               : at.strategy;
  cell.components = plan.partition.num_components;
  cell.bandwidth = plan.partition_bandwidth.to_double();
  cell.schedule_name = "online:" + cell.resolved_strategy;

  // Tenants share one augmented cache (same regime as the batch cells) but
  // size their Theta(M) cross buffers for the planned M, not the shared
  // capacity.
  iomodel::CacheConfig sim = at.cache;
  sim.capacity_words = std::max<std::int64_t>(
      at.cache.block_words,
      static_cast<std::int64_t>(std::llround(spec_.sim_capacity_factor *
                                             static_cast<double>(at.cache.capacity_words))));
  validate_cache_geometry(sim);

  const workloads::ArrivalPattern pattern = arrivals_->build(at.arrival);
  std::int64_t buffer_words = 0;  // per-tenant budget under the online rule
  const auto measure = [&]() {
    ServerOptions server_opts;
    server_opts.cache = sim;
    server_opts.tenant_policy = spec_.online.tenant_policy;
    Server server(server_opts);
    StreamOptions stream_opts;
    stream_opts.policy = at.strategy;
    stream_opts.engine = spec_.engine;
    for (std::int32_t t = 0; t < at.tenants; ++t) {
      server.admit("tenant-" + std::to_string(t), graph, plan.partition, stream_opts,
                   at.cache.capacity_words);
    }
    if (server.tenant_count() > 0) {
      buffer_words = 0;
      for (const std::int64_t cap : server.stream(0).policy().buffer_caps()) {
        buffer_words += cap;
      }
    }
    for (std::int64_t tick = 0; tick < spec_.online.ticks; ++tick) {
      const std::int64_t items = pattern(tick);
      for (TenantId t = 0; t < server.tenant_count(); ++t) server.push(t, items);
      server.run_until_idle();
    }
    server.drain_all();
    return server.report();
  };

  ServerReport report = measure();
  for (std::int32_t rep = 1; rep < spec_.repetitions; ++rep) {
    const ServerReport again = measure();
    bool identical = again.aggregate == report.aggregate &&
                     again.tenants.size() == report.tenants.size();
    for (std::size_t i = 0; identical && i < report.tenants.size(); ++i) {
      identical = again.tenants[i].totals == report.tenants[i].totals;
    }
    if (!identical) {
      throw Error("repetition " + std::to_string(rep) +
                  " diverged from the first measurement (nondeterministic tenant "
                  "policy or runtime)");
    }
  }
  cell.run = report.aggregate;
  cell.server_steps = report.steps;
  cell.buffer_words = buffer_words;
}

void Experiment::run_cluster_cell(const Coordinate& at, CellResult& cell) const {
  const sdf::SdfGraph graph = workloads_->build(at.workload);

  // Plan once with the "auto" partitioner; every tenant serves this plan.
  PlannerOptions opts;
  opts.cache = at.cache;
  opts.c_bound = spec_.c_bound;
  opts.partitioner = "auto";
  opts.exact_max_nodes = spec_.exact_max_nodes;
  opts.seed = spec_.seed;
  const Planner planner(graph, opts, partitioners_);
  const Plan plan = planner.plan();
  cell.resolved_strategy = at.strategy == "auto"
                               ? schedule::resolve_auto_policy(graph)
                               : at.strategy;
  cell.components = plan.partition.num_components;
  cell.bandwidth = plan.partition_bandwidth.to_double();
  cell.schedule_name = "cluster:" + cell.resolved_strategy;

  // Each worker's private L1 gets the augmented geometry (same regime as
  // the batch/online cells); the optional shared LLC scales off it.
  iomodel::CacheConfig l1 = at.cache;
  l1.capacity_words = std::max<std::int64_t>(
      at.cache.block_words,
      static_cast<std::int64_t>(std::llround(spec_.sim_capacity_factor *
                                             static_cast<double>(at.cache.capacity_words))));
  validate_cache_geometry(l1);

  const workloads::ArrivalPattern pattern = arrivals_->build(at.arrival);
  std::int64_t buffer_words = 0;  // per-tenant budget under the online rule
  const auto measure = [&]() {
    ClusterOptions cluster_opts;
    cluster_opts.workers = at.workers;
    cluster_opts.l1 = l1;
    cluster_opts.llc_words =
        spec_.cluster.llc_factor > 0 ? spec_.cluster.llc_factor * l1.capacity_words : 0;
    cluster_opts.llc_shards = spec_.cluster.llc_shards;
    cluster_opts.placement = at.placement;
    cluster_opts.cost_model = at.cost_model;
    cluster_opts.slo_p99 = spec_.cluster.slo_p99;
    cluster_opts.adaptive = spec_.cluster.adaptive;
    cluster_opts.admission = spec_.cluster.admission;
    cluster_opts.budget.max_live_sessions = spec_.cluster.max_live_sessions;
    cluster_opts.swap = spec_.cluster.swap;
    cluster_opts.band_words = spec_.cluster.band_words;
    Cluster cluster(cluster_opts);
    StreamOptions stream_opts;
    stream_opts.policy = at.strategy;
    stream_opts.engine = spec_.engine;

    if (spec_.cluster.churn_sessions > 0) {
      // Churn mode: the lifecycle trace decides who opens, pushes, and
      // closes; sessions idle between their own bursts (swap-tier fodder).
      workloads::ChurnOptions churn;
      churn.sessions = spec_.cluster.churn_sessions;
      churn.max_concurrent = spec_.cluster.churn_max_live;
      churn.pushes_per_session = spec_.cluster.churn_pushes;
      churn.items_per_push = spec_.cluster.churn_items;
      churn.seed = spec_.seed;
      std::unordered_map<std::int64_t, TenantId> live_ids;
      for (const workloads::SessionEvent& e : workloads::churn_trace(churn)) {
        switch (e.kind) {
          case workloads::SessionEvent::Kind::kOpen: {
            const TenantId id =
                cluster.admit("sess-" + std::to_string(e.session), graph,
                              plan.partition, stream_opts, at.cache.capacity_words);
            if (id == kNoTenant) {
              throw Error("churn admission rejected session " +
                          std::to_string(e.session) +
                          " (budget too tight for the trace's concurrency)");
            }
            live_ids.emplace(e.session, id);
            if (e.session == 0) {
              buffer_words = 0;
              for (const std::int64_t cap :
                   cluster.stream(id).policy().buffer_caps()) {
                buffer_words += cap;
              }
            }
            break;
          }
          case workloads::SessionEvent::Kind::kPush:
            cluster.push(live_ids.at(e.session), e.items);
            cluster.run_until_idle();
            // With the swap tier on, every quiescent point sheds all idle
            // sessions -- the aggressive-eviction regime, so churn cells
            // actually round-trip sessions instead of merely allowing it.
            if (cluster_opts.swap) cluster.swap_out_idle();
            break;
          case workloads::SessionEvent::Kind::kClose:
            cluster.close(live_ids.at(e.session));
            live_ids.erase(e.session);
            break;
        }
      }
      cluster.drain_all();
      return cluster.report();
    }

    for (std::int32_t t = 0; t < at.tenants; ++t) {
      cluster.admit("tenant-" + std::to_string(t), graph, plan.partition, stream_opts,
                    at.cache.capacity_words);
    }
    if (cluster.tenant_count() > 0) {
      buffer_words = 0;
      for (const std::int64_t cap : cluster.stream(0).policy().buffer_caps()) {
        buffer_words += cap;
      }
    }
    // Deterministic virtual time; the placement policy is consulted at
    // every tick boundary, so migration-happy policies actually migrate.
    for (std::int64_t tick = 0; tick < spec_.cluster.ticks; ++tick) {
      const std::int64_t items = pattern(tick);
      for (TenantId t = 0; t < cluster.tenant_count(); ++t) cluster.push(t, items);
      cluster.rebalance();
      cluster.run_until_idle();
    }
    cluster.drain_all();
    return cluster.report();
  };

  ClusterReport report = measure();
  for (std::int32_t rep = 1; rep < spec_.repetitions; ++rep) {
    const ClusterReport again = measure();
    bool identical = again.aggregate == report.aggregate &&
                     again.llc == report.llc &&
                     again.migrations == report.migrations &&
                     again.auto_migrations == report.auto_migrations &&
                     again.retired == report.retired &&
                     again.lifecycle == report.lifecycle &&
                     again.tenants.size() == report.tenants.size();
    for (std::size_t i = 0; identical && i < report.tenants.size(); ++i) {
      identical = again.tenants[i].totals == report.tenants[i].totals &&
                  again.tenants[i].worker == report.tenants[i].worker;
    }
    if (!identical) {
      throw Error("repetition " + std::to_string(rep) +
                  " diverged from the first measurement (nondeterministic placement "
                  "policy or runtime)");
    }
  }
  cell.run = report.aggregate;
  cell.server_steps = report.steps;
  cell.cluster_makespan = report.makespan();
  cell.cluster_migrations = report.migrations;
  cell.cluster_auto_migrations = report.auto_migrations;
  cell.cluster_peak_live = report.lifecycle.peak_live;
  cell.cluster_p50 = report.aggregate.latency.p50();
  cell.cluster_p95 = report.aggregate.latency.p95();
  cell.cluster_p99 = report.aggregate.latency.p99();
  for (const ClusterTenantReport& t : report.tenants) {
    if (spec_.cluster.slo_p99 <= 0 || t.totals.latency.p99() <= spec_.cluster.slo_p99) {
      ++cell.cluster_slo_ok;
    }
  }
  cell.buffer_words = buffer_words;
}

ExperimentResult Experiment::run(std::int32_t threads) const {
  if (spec_.workloads.empty()) throw Error("sweep spec lists no workloads");
  if (spec_.caches.empty()) throw Error("sweep spec lists no cache geometries");
  if (spec_.partitioners.empty() && spec_.baselines.empty() &&
      spec_.online.arrivals.empty() && spec_.cluster.arrivals.empty()) {
    throw Error(
        "sweep spec lists no partitioners, no baseline schedulers, and no "
        "online or cluster arrival patterns");
  }
  if (spec_.repetitions < 1) throw Error("sweep spec needs repetitions >= 1");
  if (!spec_.online.arrivals.empty() && spec_.online.ticks < 1) {
    throw Error("online sweep needs ticks >= 1");
  }
  if (!spec_.cluster.arrivals.empty()) {
    if (spec_.cluster.ticks < 1) throw Error("cluster sweep needs ticks >= 1");
    if (spec_.cluster.llc_factor < 0) {
      throw Error("cluster sweep needs llc_factor >= 0");
    }
    if (spec_.cluster.llc_shards < 0) {
      throw Error("cluster sweep needs llc_shards >= 0");
    }
    if (spec_.cluster.churn_sessions < 0) {
      throw Error("cluster sweep needs churn_sessions >= 0");
    }
    if (spec_.cluster.churn_sessions > 0 &&
        (spec_.cluster.churn_max_live < 1 || spec_.cluster.churn_pushes < 1 ||
         spec_.cluster.churn_items < 1)) {
      throw Error("churn sweep needs churn_max_live, churn_pushes, and "
                  "churn_items all >= 1");
    }
  }

  const std::vector<Coordinate> grid = enumerate();
  ExperimentResult result;
  result.threads = std::max<std::int32_t>(1, threads);
  result.cells.resize(grid.size());

  // wall_seconds is diagnostic throughput metadata, never simulated
  // output: every cell's counters are clock-independent (the sweep is
  // differential-tested bit-identical across thread counts).
  const auto started = std::chrono::steady_clock::now();  // ccs-lint: allow(wall-clock)
  // Work-stealing by atomic index: workers claim cells dynamically but write
  // only their own pre-sized slot, so the output is in grid order and
  // identical for any pool size.
  std::atomic<std::size_t> next{0};
  const auto worker = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= grid.size()) break;
      result.cells[i] = run_cell(grid[i]);
    }
  };
  if (result.threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(result.threads));
    for (std::int32_t t = 0; t < result.threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  result.wall_seconds =  // ccs-lint: allow(wall-clock)
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  return result;
}

std::size_t ExperimentResult::failed_cells() const {
  std::size_t n = 0;
  for (const CellResult& c : cells) {
    if (!c.ok) ++n;
  }
  return n;
}

void ExperimentResult::write_csv(std::ostream& os) const {
  os << "workload,cache_words,block_words,strategy,kind,arrival,tenants,workers,"
        "placement,t_multiplier,ok,"
        "resolved,components,batch_t,bandwidth,predicted_misses_per_input,schedule,"
        "buffer_words,accesses,misses,writebacks,firings,source_firings,sink_firings,"
        "state_misses,channel_misses,io_misses,misses_per_input,misses_per_output,"
        "server_steps,cluster_makespan,cluster_migrations,cluster_auto_migrations,"
        "cluster_peak_live,error,"
        "cost_model,cluster_p50,cluster_p95,cluster_p99,cluster_slo_ok\n";
  for (const CellResult& c : cells) {
    os << csv_escape(c.workload) << ',' << c.cache.capacity_words << ','
       << c.cache.block_words << ',' << csv_escape(c.strategy) << ','
       << (c.is_cluster  ? "cluster"
           : c.is_online ? "online"
           : c.is_baseline ? "baseline"
                           : "partitioned")
       << ',' << csv_escape(c.arrival) << ',' << c.tenants << ',' << c.workers << ','
       << csv_escape(c.placement) << ',' << c.t_multiplier << ','
       << (c.ok ? 1 : 0) << ',' << csv_escape(c.resolved_strategy) << ',' << c.components
       << ',' << c.batch_t << ',' << fmt_double(c.bandwidth) << ','
       << fmt_double(c.predicted_misses_per_input) << ',' << csv_escape(c.schedule_name)
       << ',' << c.buffer_words << ',' << c.run.cache.accesses << ',' << c.run.cache.misses
       << ',' << c.run.cache.writebacks << ',' << c.run.firings << ','
       << c.run.source_firings << ',' << c.run.sink_firings << ',' << c.run.state_misses
       << ',' << c.run.channel_misses << ',' << c.run.io_misses << ','
       << fmt_double(c.misses_per_input) << ',' << fmt_double(c.misses_per_output) << ','
       << c.server_steps << ',' << c.cluster_makespan << ',' << c.cluster_migrations
       << ',' << c.cluster_auto_migrations << ',' << c.cluster_peak_live << ','
       << csv_escape(c.error) << ',' << csv_escape(c.cost_model) << ','
       << c.cluster_p50 << ',' << c.cluster_p95 << ',' << c.cluster_p99 << ','
       << c.cluster_slo_ok << '\n';
  }
}

void ExperimentResult::write_json(std::ostream& os) const {
  os << "{\n  \"threads\": " << threads << ",\n  \"wall_seconds\": "
     << fmt_double(wall_seconds) << ",\n  \"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"workload\": \"" << json_escape(c.workload) << "\""
       << ", \"cache_words\": " << c.cache.capacity_words
       << ", \"block_words\": " << c.cache.block_words
       << ", \"strategy\": \"" << json_escape(c.strategy) << "\""
       << ", \"kind\": \""
       << (c.is_cluster  ? "cluster"
           : c.is_online ? "online"
           : c.is_baseline ? "baseline"
                           : "partitioned")
       << "\"";
    if (c.is_online || c.is_cluster) {
      os << ", \"arrival\": \"" << json_escape(c.arrival) << "\""
         << ", \"tenants\": " << c.tenants << ", \"server_steps\": " << c.server_steps;
    }
    if (c.is_cluster) {
      os << ", \"workers\": " << c.workers << ", \"placement\": \""
         << json_escape(c.placement) << "\""
         << ", \"cluster_makespan\": " << c.cluster_makespan
         << ", \"cluster_migrations\": " << c.cluster_migrations
         << ", \"cluster_auto_migrations\": " << c.cluster_auto_migrations
         << ", \"cluster_peak_live\": " << c.cluster_peak_live
         << ", \"cost_model\": \"" << json_escape(c.cost_model) << "\""
         << ", \"cluster_p50\": " << c.cluster_p50
         << ", \"cluster_p95\": " << c.cluster_p95
         << ", \"cluster_p99\": " << c.cluster_p99
         << ", \"cluster_slo_ok\": " << c.cluster_slo_ok;
    }
    os << ", \"t_multiplier\": " << c.t_multiplier
       << ", \"ok\": " << (c.ok ? "true" : "false");
    if (c.ok) {
      os << ", \"resolved\": \"" << json_escape(c.resolved_strategy) << "\""
         << ", \"components\": " << c.components << ", \"batch_t\": " << c.batch_t
         << ", \"bandwidth\": " << fmt_double(c.bandwidth)
         << ", \"predicted_misses_per_input\": " << fmt_double(c.predicted_misses_per_input)
         << ", \"schedule\": \"" << json_escape(c.schedule_name) << "\""
         << ", \"buffer_words\": " << c.buffer_words
         << ", \"accesses\": " << c.run.cache.accesses
         << ", \"misses\": " << c.run.cache.misses
         << ", \"writebacks\": " << c.run.cache.writebacks
         << ", \"firings\": " << c.run.firings
         << ", \"source_firings\": " << c.run.source_firings
         << ", \"sink_firings\": " << c.run.sink_firings
         << ", \"state_misses\": " << c.run.state_misses
         << ", \"channel_misses\": " << c.run.channel_misses
         << ", \"io_misses\": " << c.run.io_misses
         << ", \"misses_per_input\": " << fmt_double(c.misses_per_input)
         << ", \"misses_per_output\": " << fmt_double(c.misses_per_output);
    } else {
      os << ", \"error\": \"" << json_escape(c.error) << "\"";
    }
    os << "}";
  }
  os << "\n  ]\n}\n";
}

}  // namespace ccs::core
