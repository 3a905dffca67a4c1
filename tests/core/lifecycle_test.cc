// Session lifecycle on core::Server and core::Cluster: close() semantics,
// band recycling, admission control under pressure, and the swap tier's
// headline guarantee -- a swap-on run is bit-identical to a swap-off run.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/server.h"
#include "partition/pipeline_dp.h"
#include "session/lifecycle.h"
#include "util/contract.h"
#include "util/error.h"
#include "workloads/pipelines.h"

namespace ccs::core {
namespace {

using session::SessionState;

/// A small pipeline + its optimal partition for the given cache size.
struct Workload {
  sdf::SdfGraph graph;
  partition::Partition partition;
};

Workload small_workload(std::int64_t m, std::int64_t state = 64) {
  Workload w;
  w.graph = workloads::uniform_pipeline(4, state);
  w.partition = partition::pipeline_optimal_partition(w.graph, 3 * m).partition;
  return w;
}

std::string numbered(const char* prefix, std::int64_t i) {
  std::string name = prefix;
  name += std::to_string(i);
  return name;
}

std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return {};
}

// ---------------------------------------------------------------------------
// Server: close() contract and O(live) bookkeeping.

TEST(ServerLifecycle, CloseRejectsTheIdForeverNamingLiveTenants) {
  ServerOptions o;
  o.cache = {2048, 8};
  Server server(o);
  const Workload w = small_workload(o.cache.capacity_words);
  const TenantId a = server.admit("alpha", w.graph, w.partition);
  const TenantId b = server.admit("beta", w.graph, w.partition);
  ASSERT_EQ(server.tenant_count(), 2);

  server.close(a);
  EXPECT_EQ(server.tenant_count(), 1);
  EXPECT_EQ(error_of([&] { server.close(a); }),
            "unknown tenant id 0; live tenants: 1 'beta'");
  EXPECT_EQ(error_of([&] { server.push(a, 1); }),
            "unknown tenant id 0; live tenants: 1 'beta'");

  server.close(b);
  EXPECT_EQ(error_of([&] { server.close(b); }),
            "unknown tenant id 1; live tenants: (none)");
  EXPECT_EQ(server.lifecycle().sessions_opened, 2);
  EXPECT_EQ(server.lifecycle().sessions_closed, 2);
  EXPECT_EQ(server.lifecycle().live_sessions, 0);
  EXPECT_EQ(server.lifecycle().resident_words, 0);
}

TEST(ServerLifecycle, IdsAreNeverReused) {
  ServerOptions o;
  o.cache = {2048, 8};
  Server server(o);
  const Workload w = small_workload(o.cache.capacity_words);
  std::vector<TenantId> seen;
  for (int i = 0; i < 6; ++i) {
    const TenantId id =
        server.admit(numbered("t", i), w.graph, w.partition);
    for (const TenantId old : seen) EXPECT_NE(id, old);
    seen.push_back(id);
    server.close(id);  // the slot frees but the id must not come back
  }
}

TEST(ServerLifecycle, ClosedTotalsFoldIntoRetiredAndTheAggregate) {
  ServerOptions o;
  o.cache = {2048, 8};
  Server server(o);
  const Workload w = small_workload(o.cache.capacity_words);
  const TenantId a = server.admit("alpha", w.graph, w.partition);
  const TenantId b = server.admit("beta", w.graph, w.partition);
  server.push(a, 256);
  server.push(b, 256);
  server.run_until_idle();
  server.drain_all();

  const runtime::RunResult a_totals = server.stream(a).stats();
  ASSERT_GT(a_totals.cache.accesses, 0);
  server.close(a);
  server.push(b, 128);
  server.run_until_idle();
  server.drain_all();

  const ServerReport report = server.report();
  EXPECT_EQ(report.retired, a_totals);
  EXPECT_EQ(report.retired_sessions, 1);
  ASSERT_EQ(report.tenants.size(), 1u);
  // Closing loses no work: open rows + retired still equal the shared
  // cache's own ground-truth counters.
  EXPECT_EQ(report.aggregate.cache, report.shared_cache);
  runtime::RunResult sum = report.retired;
  sum += report.tenants[0].totals;
  EXPECT_EQ(sum, report.aggregate);
}

TEST(ServerLifecycle, BandsRecycleAndExhaustionThrows) {
  // The default 2^36-word band splits the 2^40 space into exactly 16 bands.
  ServerOptions o;
  o.cache = {2048, 8};
  Server server(o);
  const Workload w = small_workload(o.cache.capacity_words);
  std::vector<TenantId> open;
  for (int i = 0; i < 16; ++i)
    open.push_back(server.admit(numbered("t", i), w.graph, w.partition));

  const std::string err =
      error_of([&] { server.admit("one-too-many", w.graph, w.partition); });
  EXPECT_NE(err.find("address space exhausted"), std::string::npos) << err;
  EXPECT_NE(err.find("16"), std::string::npos) << err;

  server.close(open[5]);  // frees a band mid-range...
  const TenantId again = server.admit("reuses-band", w.graph, w.partition);
  EXPECT_NE(again, kNoTenant);  // ...and the next admit picks it up
  EXPECT_EQ(server.tenant_count(), 16);
}

TEST(ServerLifecycle, BandWordsMustAlignToTheBlockSize) {
  ServerOptions o;
  o.cache = {2048, 8};
  o.band_words = (std::int64_t{1} << 20) + 4;  // not a multiple of 8
  EXPECT_THROW(Server{o}, Error);
}

// ---------------------------------------------------------------------------
// Server: admission control and the swap tier.

TEST(ServerLifecycle, BoundedLiveRejectsWhenSwapIsOff) {
  ServerOptions o;
  o.cache = {2048, 8};
  o.admission = "bounded-live";
  o.budget.max_live_sessions = 2;
  Server server(o);
  const Workload w = small_workload(o.cache.capacity_words);
  EXPECT_NE(server.admit("a", w.graph, w.partition), kNoTenant);
  EXPECT_NE(server.admit("b", w.graph, w.partition), kNoTenant);
  EXPECT_EQ(server.admit("c", w.graph, w.partition), kNoTenant);
  EXPECT_EQ(server.lifecycle().admissions_rejected, 1);
  EXPECT_EQ(server.lifecycle().admissions_queued, 0);
  EXPECT_EQ(server.tenant_count(), 2);

  const ServerReport report = server.report();
  EXPECT_EQ(report.lifecycle.peak_live, 2);
}

TEST(ServerLifecycle, AdmissionPressureEvictsTheColdestIdleSession) {
  ServerOptions o;
  o.cache = {2048, 8};
  o.admission = "bounded-live";
  o.budget.max_live_sessions = 2;
  o.swap = true;
  Server server(o);
  const Workload w = small_workload(o.cache.capacity_words);
  const TenantId a = server.admit("a", w.graph, w.partition);
  const TenantId b = server.admit("b", w.graph, w.partition);
  server.push(a, 64);
  server.push(b, 64);
  server.run_until_idle();  // both idle -> both are eviction candidates

  const TenantId c = server.admit("c", w.graph, w.partition);
  EXPECT_NE(c, kNoTenant);
  EXPECT_EQ(server.lifecycle().admissions_queued, 1);
  EXPECT_EQ(server.lifecycle().admissions_rejected, 0);
  // `a` was touched before `b`, so it is the least-recently-active victim.
  EXPECT_TRUE(server.swapped(a));
  EXPECT_EQ(server.state_of(a), SessionState::kSwapped);
  EXPECT_FALSE(server.swapped(b));
  EXPECT_EQ(server.lifecycle().swap_outs, 1);
  EXPECT_EQ(server.lifecycle().swapped_sessions, 1);
  EXPECT_EQ(server.lifecycle().live_sessions, 2);  // b + c resident

  // The next push rehydrates `a` transparently -- but the budget still
  // holds, so someone else must go cold first.
  server.push(b, 64);
  server.push(c, 64);
  server.run_until_idle();
  const runtime::RunResult before = server.report().aggregate;
  server.swap_out(b);
  EXPECT_EQ(server.push(a, 64), 64);
  EXPECT_FALSE(server.swapped(a));
  EXPECT_EQ(server.lifecycle().swap_ins, 1);
  server.run_until_idle();
  EXPECT_GT(server.report().aggregate.cache.accesses, before.cache.accesses);
}

TEST(ServerLifecycle, SwapOutRequiresAnIdleResidentSessionAndSwapMode) {
  ServerOptions off;
  off.cache = {2048, 8};
  Server no_swap(off);
  const Workload w = small_workload(off.cache.capacity_words);
  const TenantId t = no_swap.admit("t", w.graph, w.partition);
  EXPECT_THROW(no_swap.swap_out(t), ContractViolation);

  ServerOptions on = off;
  on.swap = true;
  Server server(on);
  const TenantId u = server.admit("u", w.graph, w.partition);
  server.push(u, 16);  // live (has pending arrivals) -> not evictable
  EXPECT_THROW(server.swap_out(u), Error);
  server.run_until_idle();
  server.swap_out(u);
  EXPECT_THROW(server.swap_out(u), Error);  // already swapped
}

/// Drives one server through a fixed multi-round schedule; with `swap`, every
/// quiescent point evicts ALL idle sessions, so the next round's pushes all
/// rehydrate. Returns the final report (post-drain).
ServerReport drive_server(bool swap) {
  ServerOptions o;
  o.cache = {4096, 8};
  o.tenant_policy = "miss-aware";  // decisions depend on counters -> a real gate
  o.swap = swap;
  Server server(o);
  const Workload wa = small_workload(o.cache.capacity_words, 64);
  const Workload wb = small_workload(o.cache.capacity_words, 96);
  const TenantId a = server.admit("alpha", wa.graph, wa.partition);
  const TenantId b = server.admit("beta", wb.graph, wb.partition);
  for (int round = 0; round < 5; ++round) {
    server.push(a, 96);
    server.push(b, 64);
    server.run_until_idle();
    if (swap) {
      EXPECT_EQ(server.swap_out_idle(), 2);
    }
  }
  server.drain_all();
  return server.report();
}

TEST(ServerLifecycle, SwapOnRunIsBitIdenticalToSwapOff) {
  const ServerReport off = drive_server(false);
  const ServerReport on = drive_server(true);
  ASSERT_EQ(off.tenants.size(), on.tenants.size());
  for (std::size_t i = 0; i < off.tenants.size(); ++i) {
    EXPECT_EQ(off.tenants[i].id, on.tenants[i].id);
    EXPECT_EQ(off.tenants[i].state, on.tenants[i].state);
    EXPECT_EQ(off.tenants[i].totals, on.tenants[i].totals) << i;
    EXPECT_EQ(off.tenants[i].steps, on.tenants[i].steps) << i;
    EXPECT_EQ(off.tenants[i].outputs, on.tenants[i].outputs) << i;
  }
  EXPECT_EQ(off.aggregate, on.aggregate);
  EXPECT_EQ(off.shared_cache, on.shared_cache);  // not one extra cache access
  EXPECT_EQ(off.steps, on.steps);
  // ...and the swap-on run really did round-trip everything, repeatedly.
  EXPECT_EQ(on.lifecycle.swap_outs, 10);
  EXPECT_GE(on.lifecycle.swap_ins, 8);
  EXPECT_EQ(off.lifecycle.swap_outs, 0);
}

// ---------------------------------------------------------------------------
// Cluster: the same lifecycle over sharded workers.

TEST(ClusterLifecycle, CloseRejectsTheIdForeverNamingLiveTenants) {
  ClusterOptions o;
  o.workers = 2;
  o.l1 = {2048, 8};
  Cluster cluster(o);
  const Workload w = small_workload(o.l1.capacity_words);
  const TenantId a = cluster.admit("alpha", w.graph, w.partition);
  const TenantId b = cluster.admit("beta", w.graph, w.partition);
  cluster.push(a, 64);
  cluster.push(b, 64);
  cluster.run_until_idle();

  cluster.close(a);
  EXPECT_EQ(error_of([&] { cluster.close(a); }),
            "unknown tenant id 0; live tenants: 1 'beta'");
  const ClusterReport report = cluster.report();
  EXPECT_EQ(report.retired_sessions, 1);
  EXPECT_GT(report.retired.cache.accesses, 0);
  ASSERT_EQ(report.tenants.size(), 1u);
  runtime::RunResult sum = report.retired;
  sum += report.tenants[0].totals;
  EXPECT_EQ(sum, report.aggregate);

  cluster.close(b);
  EXPECT_EQ(error_of([&] { cluster.close(b); }),
            "unknown tenant id 1; live tenants: (none)");
  EXPECT_EQ(cluster.lifecycle().live_sessions, 0);
  EXPECT_EQ(cluster.lifecycle().resident_words, 0);
}

TEST(ClusterLifecycle, BoundedLiveCountsRejections) {
  ClusterOptions o;
  o.workers = 2;
  o.l1 = {2048, 8};
  o.admission = "bounded-live";
  o.budget.max_live_sessions = 3;
  Cluster cluster(o);
  const Workload w = small_workload(o.l1.capacity_words);
  for (int i = 0; i < 3; ++i)
    EXPECT_NE(cluster.admit(numbered("t", i), w.graph, w.partition),
              kNoTenant);
  EXPECT_EQ(cluster.admit("overflow", w.graph, w.partition), kNoTenant);
  EXPECT_EQ(cluster.lifecycle().admissions_rejected, 1);
  EXPECT_EQ(cluster.report().lifecycle.peak_live, 3);
}

/// Drives one cluster through a fixed schedule over 2 workers; with `swap`,
/// every quiescent point evicts all idle sessions.
ClusterReport drive_cluster(bool swap) {
  ClusterOptions o;
  o.workers = 2;
  o.l1 = {2048, 8};
  o.llc_words = 16 * 1024;
  o.placement = "affinity";
  o.swap = swap;
  Cluster cluster(o);
  const Workload wa = small_workload(o.l1.capacity_words, 64);
  const Workload wb = small_workload(o.l1.capacity_words, 96);
  std::vector<TenantId> ids;
  for (int i = 0; i < 4; ++i) {
    const Workload& w = (i % 2 == 0) ? wa : wb;
    ids.push_back(
        cluster.admit(numbered("t", i), w.graph, w.partition));
  }
  for (int round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < ids.size(); ++i)
      cluster.push(ids[i], 48 + 16 * static_cast<std::int64_t>(i % 2));
    cluster.run_until_idle();
    cluster.rebalance();
    if (swap) {
      EXPECT_EQ(cluster.swap_out_idle(), 4);
    }
  }
  cluster.drain_all();
  return cluster.report();
}

TEST(ClusterLifecycle, SwapOnRunIsBitIdenticalToSwapOff) {
  const ClusterReport off = drive_cluster(false);
  const ClusterReport on = drive_cluster(true);
  ASSERT_EQ(off.tenants.size(), on.tenants.size());
  for (std::size_t i = 0; i < off.tenants.size(); ++i) {
    EXPECT_EQ(off.tenants[i].id, on.tenants[i].id);
    EXPECT_EQ(off.tenants[i].totals, on.tenants[i].totals) << i;
    EXPECT_EQ(off.tenants[i].steps, on.tenants[i].steps) << i;
    EXPECT_EQ(off.tenants[i].outputs, on.tenants[i].outputs) << i;
    // Swapped sessions stay pinned, so placement history is identical too.
    EXPECT_EQ(off.tenants[i].worker, on.tenants[i].worker) << i;
    EXPECT_EQ(off.tenants[i].migrations, on.tenants[i].migrations) << i;
  }
  ASSERT_EQ(off.workers.size(), on.workers.size());
  for (std::size_t wi = 0; wi < off.workers.size(); ++wi) {
    EXPECT_EQ(off.workers[wi].l1, on.workers[wi].l1) << wi;
    EXPECT_EQ(off.workers[wi].busy, on.workers[wi].busy) << wi;
    EXPECT_EQ(off.workers[wi].steps, on.workers[wi].steps) << wi;
  }
  EXPECT_EQ(off.aggregate, on.aggregate);
  EXPECT_EQ(off.llc, on.llc);
  EXPECT_EQ(off.makespan(), on.makespan());
  EXPECT_EQ(on.lifecycle.swap_outs, 16);
  EXPECT_EQ(off.lifecycle.swap_outs, 0);
}

TEST(ClusterLifecycle, ConstStreamAccessOfASwappedTenantThrows) {
  ClusterOptions o;
  o.workers = 1;
  o.l1 = {2048, 8};
  o.swap = true;
  Cluster cluster(o);
  const Workload w = small_workload(o.l1.capacity_words);
  const TenantId t = cluster.admit("t", w.graph, w.partition);
  cluster.push(t, 32);
  cluster.run_until_idle();
  cluster.swap_out(t);
  const Cluster& view = cluster;
  EXPECT_THROW(view.stream(t), Error);
  EXPECT_NO_THROW(cluster.stream(t));  // non-const rehydrates instead
  EXPECT_FALSE(cluster.swapped(t));
}

}  // namespace
}  // namespace ccs::core
