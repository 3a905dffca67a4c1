// Golden gate for the engine at graph scale: a ~4000-actor homogeneous dag
// served through core::Stream M-batch steps plus the end-of-stream drain,
// and the static partitioned schedule of the same plan replayed through
// core::simulate. The constants were captured from the implementation that
// executed a materialized firing vector per step; the compiled firing
// program, its periodic validation, the inlined span path and the anchored
// LRU run check must reproduce them bit for bit -- every counter, the
// state/channel/io miss split, and the per-module miss attribution (pinned
// as a sum plus an order-sensitive hash of the 4002-entry vector).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/planner.h"
#include "core/scheduler.h"
#include "core/stream.h"
#include "iomodel/cache.h"
#include "util/rng.h"
#include "workloads/random_dag.h"

namespace ccs::core {
namespace {

struct Golden {
  std::int64_t firings;
  std::int64_t source_firings;
  std::int64_t sink_firings;
  std::int64_t accesses;
  std::int64_t misses;
  std::int64_t writebacks;
  std::int64_t state_misses;
  std::int64_t channel_misses;
  std::int64_t io_misses;
  std::int64_t node_miss_sum;
  std::uint64_t node_miss_hash;
};

/// FNV-1a over the per-module miss vector: any moved, dropped or swapped
/// attribution changes it.
std::uint64_t fnv1a(const std::vector<std::int64_t>& v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::int64_t x : v) {
    auto u = static_cast<std::uint64_t>(x);
    for (int i = 0; i < 8; ++i) {
      h ^= u & 0xff;
      h *= 1099511628211ULL;
      u >>= 8;
    }
  }
  return h;
}

void expect_matches(const runtime::RunResult& r, const Golden& g) {
  std::int64_t sum = 0;
  for (const std::int64_t x : r.node_misses) sum += x;
  EXPECT_EQ(r.firings, g.firings);
  EXPECT_EQ(r.source_firings, g.source_firings);
  EXPECT_EQ(r.sink_firings, g.sink_firings);
  EXPECT_EQ(r.cache.accesses, g.accesses);
  EXPECT_EQ(r.cache.misses, g.misses);
  EXPECT_EQ(r.cache.hits, g.accesses - g.misses);
  EXPECT_EQ(r.cache.writebacks, g.writebacks);
  EXPECT_EQ(r.state_misses, g.state_misses);
  EXPECT_EQ(r.channel_misses, g.channel_misses);
  EXPECT_EQ(r.io_misses, g.io_misses);
  EXPECT_EQ(r.node_misses.size(), 4002U);
  EXPECT_EQ(sum, g.node_miss_sum);
  EXPECT_EQ(fnv1a(r.node_misses), g.node_miss_hash);
}

sdf::SdfGraph scale_graph() {
  Rng rng(4002);
  workloads::LayeredSpec spec;
  spec.layers = 1000;
  spec.width = 4;
  spec.state_lo = 16;
  spec.state_hi = 48;
  return workloads::layered_homogeneous_dag(spec, rng);
}

PlannerOptions scale_options() {
  PlannerOptions opts;
  opts.cache.capacity_words = 256;
  opts.cache.block_words = 8;
  opts.partitioner = "dag-greedy";
  opts.c_bound = 0.5;  // components fit the cache, so state spans re-hit
  return opts;
}

TEST(GraphScaleGolden, StreamMBatchStepsAndDrain) {
  const sdf::SdfGraph g = scale_graph();
  ASSERT_EQ(g.node_count(), 4002);
  const Planner planner(g, scale_options());
  const Plan plan = planner.plan();
  Stream stream(planner, plan);
  ASSERT_EQ(stream.policy().name(), "homogeneous-m-batch");

  // One M-batch served to idle, a second stopped part-way down the dag,
  // and the drain flushing what is in flight.
  stream.push(256);
  stream.run_until_idle();
  stream.push(256 + 37);
  for (int i = 0; i < 300; ++i) ASSERT_TRUE(stream.step().progressed());
  stream.drain();
  EXPECT_EQ(stream.steps(), 1441);
  expect_matches(stream.stats(), Golden{2049024, 512, 512, 17726464, 3864381, 1156788, 1585670,
                                        2278583, 128, 3864381, 17224330505182188731ULL});
}

TEST(GraphScaleGolden, StaticPartitionedReplay) {
  const sdf::SdfGraph g = scale_graph();
  const Planner planner(g, scale_options());
  const Plan plan = planner.plan();
  const runtime::RunResult r =
      simulate(g, plan.schedule, scale_options().cache, 2 * plan.schedule.outputs_per_period);
  expect_matches(r, Golden{2049024, 512, 512, 17726464, 1873595, 686561, 522266, 1351201, 128,
                           1873595, 15400530167429400420ULL});
}

}  // namespace
}  // namespace ccs::core
