// Seeded operation sequences against the serving front-ends' bookkeeping.
//
// core::SessionHost keeps a resident set in id order, a name index, an
// address-band free list and the lifecycle counters; core::Cluster adds
// per-worker runnable counts, Session* slot lists and one
// footprint-estimator entry per open session, so that a serving step costs
// O(resident work) rather than O(open sessions). This file drives random
// sequences of every public operation of both front-ends -- admit, push,
// step/step_round, run_until_idle/run_threads, swap_out, swap_out_idle,
// close, migrate, rebalance, drain_all -- and
//
//  * recounts that bookkeeping from the session table after every
//    operation (Server/Cluster::audit_invariants);
//  * replays each sequence with the swap tier on and off, and in thread
//    mode, under round-robin, affinity and never-fire adaptive placement,
//    and checks swap-on == swap-off (report JSON minus the lifecycle line;
//    without rebalance for the cache-aware policies, which by design leave
//    swapped sessions pinned) and threads == virtual time (everything but
//    rounds and the LLC split);
//  * replays each sequence on a Server under both tenant policies and checks
//    repeat-run identity and swap-on == swap-off (ServerReport JSON minus
//    the lifecycle line), plus a bounded-live run that admits through the
//    eviction loop;
//  * opens and closes 10k sessions on each front-end and checks the
//    bookkeeping, estimator included, holds only the open ones.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/server.h"
#include "partition/pipeline_dp.h"
#include "placement/footprint.h"
#include "util/rng.h"
#include "workloads/pipelines.h"

namespace ccs::core {
namespace {

constexpr std::int32_t kWorkers = 3;
constexpr std::int64_t kShare = 1024;  ///< Per-session cache share M.
constexpr std::size_t kMaxOpen = 12;

struct Shape {
  sdf::SdfGraph graph;
  partition::Partition partition;
};

const std::vector<Shape>& shapes() {
  static const std::vector<Shape> all = [] {
    std::vector<Shape> out;
    for (sdf::SdfGraph g : {workloads::uniform_pipeline(4, 48),
                            workloads::heavy_tail_pipeline(6, 16, 128, 3),
                            workloads::uniform_pipeline(3, 300)}) {
      partition::Partition p = partition::pipeline_optimal_partition(g, 3 * kShare).partition;
      out.push_back(Shape{std::move(g), std::move(p)});
    }
    return out;
  }();
  return all;
}

enum class OpKind {
  kAdmit, kPush, kStep, kRun, kSwapOut, kSwapOutIdle, kClose, kMigrate, kRebalance, kDrainAll
};

struct Op {
  OpKind kind;
  std::int64_t a = 0;  ///< Shape or open-tenant choice.
  std::int64_t b = 0;  ///< Items pushed or target worker.
};

std::vector<Op> generate(std::uint64_t seed, std::int64_t count) {
  Rng rng(seed);
  std::vector<Op> ops;
  for (std::int64_t i = 0; i < count; ++i) {
    // Weighted so sessions accumulate, get traffic and run between the
    // rarer lifecycle and placement operations.
    const std::int64_t roll = rng.uniform(0, 99);
    Op op{OpKind::kAdmit};
    if (roll < 14) op.kind = OpKind::kAdmit;
    else if (roll < 42) op.kind = OpKind::kPush;
    else if (roll < 50) op.kind = OpKind::kStep;
    else if (roll < 64) op.kind = OpKind::kRun;
    else if (roll < 71) op.kind = OpKind::kSwapOut;
    else if (roll < 77) op.kind = OpKind::kSwapOutIdle;
    else if (roll < 84) op.kind = OpKind::kClose;
    else if (roll < 91) op.kind = OpKind::kMigrate;
    else if (roll < 96) op.kind = OpKind::kRebalance;
    else op.kind = OpKind::kDrainAll;
    op.a = rng.uniform(0, 1 << 20);
    op.b = op.kind == OpKind::kPush ? rng.uniform(1, 96) : rng.uniform(0, kWorkers - 1);
    ops.push_back(op);
  }
  return ops;
}

struct Mode {
  bool swap = false;
  bool threads = false;
};

ClusterOptions options_for(const std::string& placement, bool swap) {
  ClusterOptions o;
  o.workers = kWorkers;
  o.l1 = {1024, 8};
  o.llc_words = 4096;
  o.placement = placement;
  o.band_words = std::int64_t{1} << 20;
  o.swap = swap;
  // Adaptive is replayed with its migration triggers off: with them on,
  // swap-on and swap-off legitimately diverge (swapped sessions are pinned
  // and unobserved; see docs/ARCHITECTURE.md).
  if (placement == "adaptive") o.adaptive = placement::never_fire_adaptive();
  return o;
}

/// Replays `ops` on a fresh cluster, auditing the bookkeeping after every
/// operation; ends with drain_all so every session is resident again.
ClusterReport replay(const std::vector<Op>& ops, const std::string& placement, Mode mode,
                     const std::string& label) {
  Cluster cluster(options_for(placement, mode.swap));
  std::vector<TenantId> open;  // ascending: ids are monotonic
  std::int64_t admitted = 0;
  const auto pick = [&](std::int64_t r) {
    return open[static_cast<std::size_t>(r) % open.size()];
  };
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    switch (op.kind) {
      case OpKind::kAdmit: {
        if (open.size() >= kMaxOpen) break;
        const Shape& s = shapes()[static_cast<std::size_t>(op.a) % shapes().size()];
        const TenantId id = cluster.admit("s" + std::to_string(admitted++), s.graph,
                                          s.partition, {}, kShare);
        EXPECT_NE(id, kNoTenant) << label;
        open.push_back(id);
        break;
      }
      case OpKind::kPush:
        if (!open.empty()) cluster.push(pick(op.a), op.b);
        break;
      case OpKind::kStep:
        cluster.step_round();
        break;
      case OpKind::kRun:
        if (mode.threads) {
          cluster.run_threads();
        } else {
          cluster.run_until_idle();
        }
        break;
      case OpKind::kSwapOut:
        if (mode.swap && !open.empty() &&
            cluster.state_of(pick(op.a)) == session::SessionState::kIdle) {
          cluster.swap_out(pick(op.a));
        }
        break;
      case OpKind::kSwapOutIdle:
        if (mode.swap) cluster.swap_out_idle();
        break;
      case OpKind::kClose:
        if (!open.empty()) {
          const std::size_t slot = static_cast<std::size_t>(op.a) % open.size();
          cluster.close(open[slot]);
          open.erase(open.begin() + static_cast<std::ptrdiff_t>(slot));
        }
        break;
      case OpKind::kMigrate:
        if (!open.empty()) cluster.migrate(pick(op.a), static_cast<WorkerId>(op.b));
        break;
      case OpKind::kRebalance:
        cluster.rebalance();
        break;
      case OpKind::kDrainAll:
        cluster.drain_all();
        break;
    }
    EXPECT_NO_THROW(cluster.audit_invariants()) << label << " after op " << i;
  }
  cluster.drain_all();
  EXPECT_NO_THROW(cluster.audit_invariants()) << label << " after the final drain";
  return cluster.report();
}

template <class Report>
std::string json_without_lifecycle(const Report& r) {
  std::ostringstream full;
  r.write_json(full);
  std::istringstream lines(full.str());
  std::string out;
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"lifecycle\"") == std::string::npos) out += line + "\n";
  }
  return out;
}

/// Threads == virtual time: everything but the round count (thread mode
/// does not run rounds) and the LLC hit/miss split (real interleaving).
void expect_mode_equivalent(const ClusterReport& virt, const ClusterReport& thr,
                            const std::string& label) {
  ASSERT_EQ(virt.tenants.size(), thr.tenants.size()) << label;
  for (std::size_t i = 0; i < virt.tenants.size(); ++i) {
    const ClusterTenantReport& a = virt.tenants[i];
    const ClusterTenantReport& b = thr.tenants[i];
    EXPECT_EQ(a.id, b.id) << label;
    EXPECT_EQ(a.totals, b.totals) << label << " tenant " << a.id;
    EXPECT_EQ(a.steps, b.steps) << label << " tenant " << a.id;
    EXPECT_EQ(a.outputs, b.outputs) << label << " tenant " << a.id;
    EXPECT_EQ(a.worker, b.worker) << label << " tenant " << a.id;
    EXPECT_EQ(a.migrations, b.migrations) << label << " tenant " << a.id;
  }
  ASSERT_EQ(virt.workers.size(), thr.workers.size()) << label;
  for (std::size_t w = 0; w < virt.workers.size(); ++w) {
    EXPECT_EQ(virt.workers[w].l1, thr.workers[w].l1) << label << " worker " << w;
    EXPECT_EQ(virt.workers[w].busy, thr.workers[w].busy) << label << " worker " << w;
    EXPECT_EQ(virt.workers[w].steps, thr.workers[w].steps) << label << " worker " << w;
    EXPECT_EQ(virt.workers[w].tenants, thr.workers[w].tenants) << label << " worker " << w;
  }
  EXPECT_EQ(virt.aggregate, thr.aggregate) << label;
  EXPECT_EQ(virt.retired, thr.retired) << label;
  EXPECT_EQ(virt.migrations, thr.migrations) << label;
  EXPECT_EQ(virt.migration_noops, thr.migration_noops) << label;
  EXPECT_EQ(virt.lifecycle, thr.lifecycle) << label;
}

class ClusterOpSequence : public ::testing::TestWithParam<const char*> {};

TEST_P(ClusterOpSequence, BookkeepingAuditsCleanAndModesAgree) {
  const std::string placement = GetParam();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::vector<Op> ops = generate(seed * 7919 + 3, 160);
    const std::string label = placement + " seed " + std::to_string(seed);
    const ClusterReport off = replay(ops, placement, {false, false}, label + " swap-off");
    const ClusterReport threads = replay(ops, placement, {false, true}, label + " threads");
    expect_mode_equivalent(off, threads, label);
    EXPECT_GT(off.aggregate.firings, 0) << label;  // the sequences do real work

    // Swap-on == swap-off holds while no placement decision meets a swapped
    // session: rebalance() leaves swapped sessions where they are, where a
    // swap-off run may move the same (idle) sessions. Round-robin never
    // moves anyone, so it keeps every rebalance; the cache-aware policies
    // are compared on the sequence without them.
    std::vector<Op> swap_ops = ops;
    if (placement != "round-robin") {
      std::erase_if(swap_ops, [](const Op& op) { return op.kind == OpKind::kRebalance; });
    }
    const ClusterReport swap_off =
        placement == "round-robin" ? off : replay(swap_ops, placement, {false, false}, label);
    const ClusterReport on = replay(swap_ops, placement, {true, false}, label + " swap-on");
    EXPECT_EQ(json_without_lifecycle(swap_off), json_without_lifecycle(on)) << label;
    EXPECT_GT(on.lifecycle.swap_ins, 0) << label;  // real round trips happened
  }
}

INSTANTIATE_TEST_SUITE_P(Placements, ClusterOpSequence,
                         ::testing::Values("round-robin", "affinity", "adaptive"));

TEST(ClusterOps, ClosedSessionsLeaveNoBookkeepingBehind) {
  // 10k sessions through a window of at most 4 open, under adaptive
  // placement (which observes every resident session): the footprint
  // estimator, the resident set, the name index and the slot lists must all
  // hold exactly the open sessions, however many were ever admitted.
  ClusterOptions o = options_for("adaptive", true);
  o.adaptive = placement::AdaptiveOptions{};
  Cluster cluster(o);
  const Shape& s = shapes().front();
  std::vector<TenantId> open;
  for (std::int64_t i = 0; i < 10000; ++i) {
    open.push_back(cluster.admit("s" + std::to_string(i), s.graph, s.partition, {}, kShare));
    cluster.push(open.back(), 8);
    cluster.run_until_idle();
    if (i % 3 == 0) cluster.swap_out_idle();
    if (open.size() > 4) {
      cluster.close(open.front());
      open.erase(open.begin());
    }
    if (i % 1000 == 0) {
      ASSERT_NO_THROW(cluster.audit_invariants()) << "after session " << i;
    }
  }
  EXPECT_EQ(cluster.tenant_count(), 4);
  EXPECT_EQ(cluster.lifecycle().sessions_opened, 10000);
  EXPECT_NO_THROW(cluster.audit_invariants());
  for (const TenantId id : open) cluster.close(id);
  EXPECT_EQ(cluster.tenant_count(), 0);
  EXPECT_NO_THROW(cluster.audit_invariants());
}

ServerOptions server_options(const std::string& tenant_policy, bool swap) {
  ServerOptions o;
  o.cache = {1024, 8};
  o.tenant_policy = tenant_policy;
  o.band_words = std::int64_t{1} << 20;
  o.swap = swap;
  return o;
}

/// Replays `ops` on a fresh server (migrate and rebalance have no Server
/// twin and are skipped), auditing the bookkeeping after every operation;
/// ends with drain_all so every session is resident again.
ServerReport replay_server(const std::vector<Op>& ops, const ServerOptions& options,
                           const std::string& label) {
  Server server(options);
  std::vector<TenantId> open;  // ascending: ids are monotonic
  std::int64_t admitted = 0;
  const auto pick = [&](std::int64_t r) {
    return open[static_cast<std::size_t>(r) % open.size()];
  };
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    switch (op.kind) {
      case OpKind::kAdmit: {
        if (open.size() >= kMaxOpen) break;
        const Shape& s = shapes()[static_cast<std::size_t>(op.a) % shapes().size()];
        const TenantId id = server.admit("s" + std::to_string(admitted++), s.graph,
                                         s.partition, {}, kShare);
        // Refused only under a bounded admission policy with no idle victim.
        if (id != kNoTenant) open.push_back(id);
        break;
      }
      case OpKind::kPush:
        if (!open.empty()) server.push(pick(op.a), op.b);
        break;
      case OpKind::kStep:
        server.step();
        break;
      case OpKind::kRun:
        server.run_until_idle();
        break;
      case OpKind::kSwapOut:
        if (options.swap && !open.empty() &&
            server.state_of(pick(op.a)) == session::SessionState::kIdle) {
          server.swap_out(pick(op.a));
        }
        break;
      case OpKind::kSwapOutIdle:
        if (options.swap) server.swap_out_idle();
        break;
      case OpKind::kClose:
        if (!open.empty()) {
          const std::size_t slot = static_cast<std::size_t>(op.a) % open.size();
          server.close(open[slot]);
          open.erase(open.begin() + static_cast<std::ptrdiff_t>(slot));
        }
        break;
      case OpKind::kMigrate:
      case OpKind::kRebalance:
        break;
      case OpKind::kDrainAll:
        server.drain_all();
        break;
    }
    EXPECT_NO_THROW(server.audit_invariants()) << label << " after op " << i;
  }
  server.drain_all();
  EXPECT_NO_THROW(server.audit_invariants()) << label << " after the final drain";
  return server.report();
}

std::string full_json(const ServerReport& r) {
  std::ostringstream out;
  r.write_json(out);
  return out.str();
}

class ServerOpSequence : public ::testing::TestWithParam<const char*> {};

TEST_P(ServerOpSequence, BookkeepingAuditsCleanAndSwapIsInvisible) {
  const std::string policy = GetParam();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::vector<Op> ops = generate(seed * 7919 + 3, 160);
    const std::string label = policy + " seed " + std::to_string(seed);
    const ServerReport off = replay_server(ops, server_options(policy, false), label + " swap-off");
    const ServerReport again = replay_server(ops, server_options(policy, false), label + " again");
    EXPECT_EQ(full_json(off), full_json(again)) << label;  // repeat-run identity
    EXPECT_GT(off.aggregate.firings, 0) << label;          // the sequences do real work
    EXPECT_EQ(off.aggregate.cache, off.shared_cache) << label;

    // Swapped sessions are idle and never offered, keep their place in the
    // multiplexing order and their miss rate, and rehydrate without cache
    // traffic: nothing but the lifecycle line may change.
    const ServerReport on = replay_server(ops, server_options(policy, true), label + " swap-on");
    EXPECT_EQ(json_without_lifecycle(off), json_without_lifecycle(on)) << label;
    EXPECT_GT(on.lifecycle.swap_ins, 0) << label;  // real round trips happened

    // A resident budget below the open window admits through the eviction
    // loop (or refuses); the bookkeeping must audit clean throughout. The
    // budget gates admission only: pushes and drains rehydrate freely.
    ServerOptions bounded = server_options(policy, true);
    bounded.admission = "bounded-live";
    bounded.budget.max_live_sessions = 4;
    const ServerReport b = replay_server(ops, bounded, label + " bounded");
    EXPECT_GT(b.lifecycle.admissions_queued, 0) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(TenantPolicies, ServerOpSequence,
                         ::testing::Values("round-robin", "miss-aware"));

TEST(ServerOps, ClosedSessionsLeaveNoBookkeepingBehind) {
  // 10k sessions through a window of at most 4 open under a 2-resident
  // budget: the resident set, the name index, the swap tier and the band
  // free list must hold exactly the open sessions, however many were ever
  // admitted.
  ServerOptions o = server_options("miss-aware", true);
  o.admission = "bounded-live";
  o.budget.max_live_sessions = 2;
  Server server(o);
  const Shape& s = shapes().front();
  std::vector<TenantId> open;
  for (std::int64_t i = 0; i < 10000; ++i) {
    open.push_back(server.admit("s" + std::to_string(i), s.graph, s.partition, {}, kShare));
    ASSERT_NE(open.back(), kNoTenant) << "session " << i;
    server.push(open.back(), 8);
    server.run_until_idle();
    if (i % 3 == 0) server.swap_out_idle();
    if (open.size() > 4) {
      server.close(open.front());
      open.erase(open.begin());
    }
    if (i % 1000 == 0) {
      ASSERT_NO_THROW(server.audit_invariants()) << "after session " << i;
    }
  }
  EXPECT_EQ(server.tenant_count(), 4);
  EXPECT_EQ(server.lifecycle().sessions_opened, 10000);
  EXPECT_LE(server.lifecycle().peak_live, 2);
  EXPECT_NO_THROW(server.audit_invariants());
  for (const TenantId id : open) server.close(id);
  EXPECT_EQ(server.tenant_count(), 0);
  EXPECT_EQ(server.lifecycle().live_sessions, 0);
  EXPECT_EQ(server.lifecycle().swapped_sessions, 0);
  EXPECT_EQ(server.lifecycle().resident_words, 0);
  EXPECT_EQ(server.report().swap_stored_bytes, 0);
  EXPECT_NO_THROW(server.audit_invariants());
}

TEST(FootprintEstimator, RemovedSessionsAreForgotten) {
  placement::FootprintEstimator est;
  est.add_session(3, 1000, 300);
  est.add_session(9, 500, 100);
  EXPECT_EQ(est.session_count(), 2);
  EXPECT_THROW(est.add_session(3, 1000, 300), ContractViolation);  // already registered
  est.remove_session(3);
  EXPECT_EQ(est.session_count(), 1);
  EXPECT_FALSE(est.contains(3));
  EXPECT_TRUE(est.contains(9));
  EXPECT_EQ(est.footprint_words(9), 500);
  EXPECT_THROW(est.footprint_words(3), ContractViolation);
  EXPECT_THROW(est.remove_session(3), ContractViolation);
}

}  // namespace
}  // namespace ccs::core
