// Microbenchmark: streaming engine throughput (google-benchmark).
//
// Firings/second of the token+cache execution engine, the inner loop of
// every experiment. Regimes: resident (component fits, mostly hits),
// thrashing (state exceeds cache, mostly misses), attribution overhead, a
// wide split-join (many short channels per firing, stressing the
// precomputed firing plans rather than the state scan), and graph scale
// (one homogeneous M-batch step of a 2002-actor dag, as a session serves
// it).

#include <benchmark/benchmark.h>

#include "core/planner.h"
#include "core/stream.h"
#include "iomodel/cache.h"
#include "runtime/engine.h"
#include "schedule/naive.h"
#include "sdf/min_buffer.h"
#include "util/rng.h"
#include "workloads/pipelines.h"
#include "workloads/random_dag.h"
#include "workloads/streamit.h"

namespace {

using namespace ccs;

void run_engine(benchmark::State& state, const sdf::SdfGraph& g, std::int64_t cache_words) {
  const auto naive = schedule::naive_minimal_buffer_schedule(g);
  iomodel::LruCache cache(iomodel::CacheConfig{cache_words, 8});
  runtime::EngineOptions opts;
  opts.per_node_attribution = false;
  runtime::Engine engine(g, naive.buffer_caps, cache, opts);
  std::int64_t firings = 0;
  for (auto _ : state) {
    engine.run(naive.period);
    firings += static_cast<std::int64_t>(naive.period.size());
  }
  state.SetItemsProcessed(firings);
}

void BM_EngineResident(benchmark::State& state) {
  run_engine(state, workloads::uniform_pipeline(16, 256), 64 * 1024);
}
BENCHMARK(BM_EngineResident);

void BM_EngineThrashing(benchmark::State& state) {
  run_engine(state, workloads::uniform_pipeline(16, 256), 1024);
}
BENCHMARK(BM_EngineThrashing);

// 32 parallel single-tap filters under a duplicating split: each joiner
// firing moves one token across each of 32 packed one-word channels, so the
// firing plan and channel bookkeeping dominate, not the state scan.
void BM_EngineWideSplitJoin(benchmark::State& state) {
  run_engine(state, workloads::channel_vocoder(32), 64 * 1024);
}
BENCHMARK(BM_EngineWideSplitJoin);

void BM_EngineWithAttribution(benchmark::State& state) {
  const auto g = workloads::uniform_pipeline(16, 256);
  const auto naive = schedule::naive_minimal_buffer_schedule(g);
  iomodel::LruCache cache(iomodel::CacheConfig{64 * 1024, 8});
  runtime::Engine engine(g, naive.buffer_caps, cache);  // attribution on
  std::int64_t firings = 0;
  for (auto _ : state) {
    engine.run(naive.period);
    firings += static_cast<std::int64_t>(naive.period.size());
  }
  state.SetItemsProcessed(firings);
}
BENCHMARK(BM_EngineWithAttribution);

// One M-batch step per iteration: a component of the narrow, deep 2002-actor
// layered dag (500 layers of 4, 160-word states) runs M = 1024 passes over
// its members on a 4096-word LRU, through core::Stream exactly as a serving
// session steps it (policy planning, validation, execution). When the
// session idles, the next 1024 inputs are pushed. Reports ns per firing.
void BM_EngineMBatchStep(benchmark::State& state) {
  Rng rng(1);
  workloads::LayeredSpec spec;
  spec.layers = 500;
  spec.width = 4;
  spec.state_lo = spec.state_hi = 160;
  const sdf::SdfGraph g = workloads::layered_homogeneous_dag(spec, rng);
  constexpr std::int64_t kM = 1024;
  core::PlannerOptions popts;
  popts.cache = {kM, 8};
  const core::Planner planner(g, popts);
  const partition::Partition p = planner.plan("dag-greedy").partition;
  iomodel::LruCache cache(iomodel::CacheConfig{4096, 8});
  core::Stream stream(g, p, cache, kM);
  std::int64_t firings = 0;
  for (auto _ : state) {
    core::StepResult r = stream.step();
    if (!r.progressed()) {
      stream.push(kM);
      r = stream.step();
    }
    firings += r.run.firings;
    benchmark::DoNotOptimize(r.run.cache.misses);
  }
  state.SetItemsProcessed(firings);
  state.counters["ns_per_firing"] = benchmark::Counter(
      static_cast<double>(firings) * 1e-9, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_EngineMBatchStep)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
