// Microbenchmark: session churn at serving scale (google-benchmark).
//
// The lifecycle subsystem's headline claim: a Server's memory is O(live),
// not O(ever-admitted). BM_ChurnFlatMemory drives a sliding window of open
// sessions through 100k and 1,000,000 logical sessions with a few-hundred
// live budget ("bounded-live" admission + the swap tier, band_words = 2^20
// so the 2^40 address space holds ~1M session bands) and records, per run:
//
//   * peak_live            -- max resident sessions at any instant;
//   * peak_resident_kwords -- max resident layout footprint (state + rings,
//                             in thousands of simulated words);
//   * swap_outs / swap_ins -- eviction traffic the window forced;
//   * sessions_opened      -- the logical-session scale (the x-axis).
//
// FLAT means peak_live and peak_resident_kwords are identical at 100k and
// at 1M sessions -- scale shows up only in sessions_opened and wall time.
// The bit-identity of swapped sessions is gated in tests (lifecycle_test,
// swap_roundtrip_test); this file records the memory-bound story and the
// raw churn rate (sessions opened+closed per second of wall clock).
//
// BM_ChurnTraceGen measures the workloads::churn_trace generator alone at
// the same scales -- the experiment driver's per-cell setup cost.
//
// BM_ClusterChurnWindow is the core::Cluster arm: a fixed resident budget
// (64 live sessions, swap tier on, adaptive placement on 4 workers) under a
// sliding window of 64, 256 or 1024 open sessions. Every session gets one
// burst at admission and one revisit to the session opened 48 admissions
// earlier (a swap-in), and each burst is followed by run_until_idle +
// swap_out_idle, like the churn-swap serving benchmark. The modeled work
// per session (l1_misses_per_session) is the same at every window, so
// us_per_session stays flat when the cluster's per-tick cost follows
// resident sessions and grows with the window when it follows open ones.

#include <benchmark/benchmark.h>

#include <deque>
#include <string>

#include "core/cluster.h"
#include "core/server.h"
#include "partition/pipeline_dp.h"
#include "workloads/arrivals.h"
#include "workloads/pipelines.h"

namespace {

using namespace ccs;

constexpr std::int64_t kLiveBudget = 256;   ///< Resident-session cap.
constexpr std::int64_t kWindow = 384;       ///< Open (resident + swapped) cap.
constexpr std::int64_t kItemsPerBurst = 32;

/// A sliding window of open sessions over `sessions` logical lifetimes:
/// every admission beyond the resident budget evicts the coldest idle
/// session to the swap tier, every 16th burst goes to the oldest open
/// session (rehydrating it), and the window's tail closes forever.
void BM_ChurnFlatMemory(benchmark::State& state) {
  const std::int64_t sessions = state.range(0);
  const auto g = workloads::uniform_pipeline(4, 48);
  core::ServerOptions opts;
  opts.cache = {2048, 8};
  opts.admission = "bounded-live";
  opts.budget.max_live_sessions = kLiveBudget;
  opts.swap = true;
  opts.band_words = std::int64_t{1} << 20;  // ~1M co-open session bands
  const auto p =
      partition::pipeline_optimal_partition(g, 3 * opts.cache.capacity_words)
          .partition;

  session::LifecycleCounters last;
  for (auto _ : state) {
    core::Server server(opts);
    core::StreamOptions sopts;
    sopts.engine.per_node_attribution = false;
    std::deque<core::TenantId> open;
    for (std::int64_t s = 0; s < sessions; ++s) {
      const core::TenantId id =
          server.admit("s" + std::to_string(s), g, p, sopts);
      open.push_back(id);
      server.push(id, kItemsPerBurst);
      server.run_until_idle();
      if (s % 16 == 15) {
        // Revisit the window's coldest session: almost certainly swapped by
        // now, so this burst pays one rehydration.
        server.push(open.front(), kItemsPerBurst);
        server.run_until_idle();
      }
      if (static_cast<std::int64_t>(open.size()) > kWindow) {
        server.close(open.front());
        open.pop_front();
      }
    }
    server.drain_all();
    last = server.lifecycle();
    while (!open.empty()) {
      server.close(open.front());
      open.pop_front();
    }
  }
  state.SetItemsProcessed(last.sessions_opened * state.iterations());
  state.counters["sessions_opened"] = static_cast<double>(last.sessions_opened);
  state.counters["peak_live"] = static_cast<double>(last.peak_live);
  state.counters["peak_resident_kwords"] =
      static_cast<double>(last.peak_resident_words) / 1000.0;
  state.counters["swap_outs"] = static_cast<double>(last.swap_outs);
  state.counters["swap_ins"] = static_cast<double>(last.swap_ins);
  state.SetLabel("live<=" + std::to_string(last.peak_live) + "/" +
                 std::to_string(sessions) + "-sessions");
}
BENCHMARK(BM_ChurnFlatMemory)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_ClusterChurnWindow(benchmark::State& state) {
  constexpr std::int64_t kSessions = 8192;
  constexpr std::int64_t kItems = 16;
  constexpr std::size_t kRevisit = 48;
  const std::int64_t window = state.range(0);
  const auto g = workloads::uniform_pipeline(4, 48);
  core::ClusterOptions opts;
  opts.workers = 4;
  opts.l1 = {4096, 8};
  opts.placement = "adaptive";
  opts.admission = "bounded-live";
  opts.budget.max_live_sessions = 64;
  opts.swap = true;
  opts.band_words = std::int64_t{1} << 20;
  const auto p = partition::pipeline_optimal_partition(g, 3 * opts.l1.capacity_words).partition;

  session::LifecycleCounters last;
  std::int64_t misses = 0;
  for (auto _ : state) {
    core::Cluster cluster(opts);
    std::deque<core::TenantId> open;
    const auto burst = [&](core::TenantId id) {
      cluster.push(id, kItems);
      cluster.run_until_idle();
      cluster.swap_out_idle();
    };
    for (std::int64_t s = 0; s < kSessions; ++s) {
      open.push_back(cluster.admit("s" + std::to_string(s), g, p));
      burst(open.back());
      // Revisit the session opened kRevisit admissions ago (open at every
      // window): it was swapped out, so this burst pays a rehydration, and
      // the modeled work is the same at every window.
      if (open.size() > kRevisit) burst(open[open.size() - 1 - kRevisit]);
      if (static_cast<std::int64_t>(open.size()) > window) {
        cluster.close(open.front());
        open.pop_front();
      }
    }
    last = cluster.lifecycle();
    misses = cluster.report().aggregate.cache.misses;
    benchmark::DoNotOptimize(last);
  }
  state.SetItemsProcessed(kSessions * state.iterations());
  state.counters["us_per_session"] = benchmark::Counter(
      static_cast<double>(kSessions * state.iterations()) * 1e-6,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["swap_ins"] = static_cast<double>(last.swap_ins);
  state.counters["peak_live"] = static_cast<double>(last.peak_live);
  state.counters["l1_misses_per_session"] =
      static_cast<double>(misses) / static_cast<double>(kSessions);
}
BENCHMARK(BM_ClusterChurnWindow)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/// The churn-trace generator alone (the experiment driver's setup cost).
void BM_ChurnTraceGen(benchmark::State& state) {
  workloads::ChurnOptions o;
  o.sessions = state.range(0);
  o.max_concurrent = kLiveBudget;
  o.pushes_per_session = 2;
  std::int64_t events = 0;
  for (auto _ : state) {
    const auto trace = workloads::churn_trace(o);
    events += static_cast<std::int64_t>(trace.size());
    benchmark::DoNotOptimize(trace.data());
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_ChurnTraceGen)->Arg(100000)->Arg(1000000);

}  // namespace

BENCHMARK_MAIN();
