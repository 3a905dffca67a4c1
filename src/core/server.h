// core::Server -- multi-tenant serving over one shared cache, with sessions
// as a managed, bounded resource.
//
// The paper's cost model is about a *single* application owning the cache;
// serving-scale reality is several streaming applications timesharing one.
// A Server owns a shared CacheSim, admits multiple core::Stream sessions
// onto it, and multiplexes their component executions with a pluggable
// tenant policy -- round-robin (fair timesharing) or miss-aware (cache
// affinity: prefer the tenant whose working set is resident). Every tenant
// keeps its own RunResult, and because each cache access belongs to exactly
// one tenant's step, the per-tenant counters always sum to the shared
// cache's aggregate -- the interference between tenants shows up as each
// tenant's misses rising above its solo baseline, which is the paper's
// cache-contention story at serving scale.
//
// Sessions live in a core::SessionHost, the lifecycle Cluster shares:
// admission under a session::AdmissionPolicy (evicting the coldest idle
// session to the swap tier, or returning kNoTenant), address bands, the
// swap tier, and close(). A swapped session keeps its id, band and place in
// the multiplexing order (as an idle tenant), so a swap-on run's per-tenant
// counters are bit-identical to a swap-off run's; memory is O(live), not
// O(ever-admitted) (bench/micro_churn.cc, 1,000,000 logical sessions). A
// step offers only resident sessions and swap_out_idle() walks only them.
//
//   core::ServerOptions sopts;
//   sopts.cache = {64 * 1024, 8};
//   sopts.admission = "bounded-live";
//   sopts.budget.max_live_sessions = 4;
//   sopts.swap = true;
//   core::Server server(sopts);
//   const auto a = server.admit("radio", g1, plan1.partition);
//   server.push(a, 4096);
//   server.run_until_idle();
//   server.close(a);
//   server.report().write_json(std::cout);
//
// Determinism: admission order, arrival pushes, eviction (LRU over idle
// sessions), and both built-in tenant policies are deterministic, so
// repeated identical runs produce identical per-tenant and aggregate
// counters (asserted in tests/core/server_test.cc and the lifecycle suite).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/session_host.h"
#include "core/stream.h"
#include "iomodel/cache.h"
#include "iomodel/types.h"
#include "partition/partition.h"
#include "runtime/run_result.h"
#include "session/admission.h"
#include "session/lifecycle.h"
#include "util/registry.h"

namespace ccs::core {

/// What a tenant policy may consult about one tenant when picking who runs
/// next. Only runnable tenants are offered.
struct TenantStatus {
  TenantId id = kNoTenant;
  std::int64_t pending_inputs = 0;    ///< Arrivals waiting to be consumed.
  std::int64_t outputs = 0;           ///< Sink firings so far.
  std::int64_t steps = 0;             ///< Component executions so far.
  double last_miss_rate = 0.0;        ///< Misses per firing of the last step.
};

/// A tenant-multiplexing rule. pick() must return one of the offered ids;
/// policies may keep state (e.g. a rotation cursor) but must be
/// deterministic -- the Server's repeat-run guarantee depends on it.
class TenantPolicy {
 public:
  virtual ~TenantPolicy() = default;
  virtual TenantId pick(const std::vector<TenantStatus>& runnable) = 0;
};

/// A named tenant-policy factory.
struct TenantPolicyEntry {
  std::function<std::unique_ptr<TenantPolicy>()> build;
  std::string description;  ///< One-line description for listings.
};

/// String-keyed tenant-policy table ("round-robin", "miss-aware"). See
/// util/registry.h for the shared add/find/keys semantics.
class TenantRegistry : public NamedRegistry<TenantPolicyEntry> {
 public:
  TenantRegistry()
      : NamedRegistry<TenantPolicyEntry>("tenant policy", "tenant policies") {}

  /// The process-wide registry, seeded with the built-ins on first use.
  static TenantRegistry& global();
};

/// Registers the built-in tenant policies into `r` (used by global();
/// exposed so tests can build isolated registries): round-robin, miss-aware.
void register_builtin_tenant_policies(TenantRegistry& r);

/// Server knobs.
struct ServerOptions {
  iomodel::CacheConfig cache{64 * 1024, 8};  ///< Shared cache geometry.
  std::string tenant_policy = "round-robin";  ///< TenantRegistry key.

  /// session::AdmissionRegistry key governing admit(). "unbounded" (the
  /// default) admits everything, preserving the pre-lifecycle behaviour.
  std::string admission = "unbounded";

  /// Limits the admission policy enforces (all-zero = no limits).
  session::AdmissionBudget budget;

  /// Enable the idle-session swap tier: an admission the policy refuses
  /// evicts the least-recently-active idle session (serialized to a
  /// session::SwapImage) and retries; swapped sessions rehydrate
  /// transparently on their next push(). Off, refused admissions are
  /// simply rejected.
  bool swap = false;

  /// Words of simulated address space reserved per open session (the band
  /// its state, rings, and external streams live in). The default 2^36
  /// preserves the historical banding; smaller bands admit more concurrent
  /// sessions (the 2^40 space holds 2^40 / band_words bands -- 16 at the
  /// default, ~1M at 2^20). Must be a multiple of the cache block size and
  /// large enough for each session's layout.
  std::int64_t band_words = std::int64_t{1} << 36;
};

/// One tenant's slice of a ServerReport.
struct TenantReport {
  TenantId id = kNoTenant;
  std::string name;
  session::SessionState state = session::SessionState::kLive;
  runtime::RunResult totals;   ///< This tenant's whole-session counters.
  std::int64_t steps = 0;      ///< Component executions granted.
  std::int64_t outputs = 0;    ///< Sink firings produced.
};

/// Per-tenant and aggregate accounting of everything the server executed.
struct ServerReport {
  std::vector<TenantReport> tenants;   ///< Open sessions, in id order.
  runtime::RunResult aggregate;        ///< Sum over open tenants + retired.
  runtime::RunResult retired;          ///< Folded totals of closed sessions.
  std::int64_t retired_sessions = 0;   ///< Sessions closed so far.
  iomodel::CacheStats shared_cache;    ///< Shared-cache deltas since admission
                                       ///< began (== aggregate.cache).
  std::int64_t steps = 0;              ///< Multiplexing decisions executed.
  session::LifecycleCounters lifecycle;  ///< Residency + admission accounting.
  std::int64_t swap_stored_bytes = 0;    ///< Swap-tier footprint right now.
  std::int64_t swap_peak_stored_bytes = 0;

  /// One stable-keyed JSON object (counters lossless) so server runs can
  /// be byte-diffed in CI. The "lifecycle" sub-object is emitted on a
  /// single line so differentials that legitimately differ only in swap
  /// accounting can strip it with `grep -v '"lifecycle"'`.
  void write_json(std::ostream& os) const;
};

/// Multi-tenant streaming server: one shared cache, many Stream sessions,
/// one multiplexing rule. Not thread-safe -- the shared cache makes tenant
/// steps inherently serial (that is the contention being modeled).
class Server {
 public:
  /// Throws MemoryError for a degenerate cache geometry and ccs::Error for
  /// an unknown tenant-policy/admission key or invalid band size.
  /// `registry` defaults to TenantRegistry::global(); it must outlive the
  /// server.
  explicit Server(ServerOptions options, const TenantRegistry* registry = nullptr);

  /// Admits a new session over the shared cache and returns its id, or
  /// kNoTenant when the admission policy refuses and no idle victim can be
  /// swapped out to make room (counted in the lifecycle report either
  /// way). `options.policy` resolves through the online registry as usual.
  /// `m` is the cache size the session's Theta(M) buffers amortize
  /// against; 0 (the default) uses the shared cache's full capacity, a
  /// smaller value sizes the tenant for its *share* of a contended cache.
  /// Throws ccs::Error when the open-session count exhausts the address
  /// bands or the session's layout exceeds one band.
  TenantId admit(std::string name, const sdf::SdfGraph& g, const partition::Partition& p,
                 StreamOptions options = {}, std::int64_t m = 0);

  /// Convenience: admit a Planner plan (graph and partition from the plan's
  /// session). The shared cache geometry still governs buffer sizing.
  TenantId admit(std::string name, const Planner& planner, const Plan& plan,
                 StreamOptions options = {});

  /// Retires session `id` forever: folds its totals into the report's
  /// `retired` aggregate, frees its engine (or discards its swap image),
  /// and returns its address band to the free list. The id is rejected
  /// from then on. Throws ccs::Error naming the live tenants for an
  /// unknown or already-closed id.
  void close(TenantId id);

  /// Open sessions right now (live + idle + swapped).
  std::int32_t tenant_count() const noexcept { return host_.size(); }

  /// The tenant's session (for pushes, polls, or direct stepping).
  /// Rehydrates a swapped session first -- taking a Stream reference means
  /// the caller is about to touch live state. Throws ccs::Error naming the
  /// live tenants for an unknown or closed id.
  Stream& stream(TenantId id);

  const std::string& tenant_name(TenantId id) const;

  /// Lifecycle state of an open session (kLive / kIdle / kSwapped).
  session::SessionState state_of(TenantId id) const;

  /// True iff the session is currently in the swap tier.
  bool swapped(TenantId id) const;

  /// Forwards arrivals to tenant `id`, rehydrating it first if swapped;
  /// returns how many were accepted.
  std::int64_t push(TenantId id, std::int64_t items);

  /// One multiplexing decision: offers every possibly-runnable tenant to
  /// the tenant policy, steps the pick, and returns who ran (kNoTenant if
  /// every tenant is idle). A picked tenant that turns out to be blocked is
  /// remembered as idle until new arrivals wake it. Swapped tenants are
  /// idle by construction and are never offered.
  TenantId step();

  /// Steps until every tenant is idle; returns multiplexing decisions made.
  std::int64_t run_until_idle();

  /// Drains every tenant, in id order (rehydrating swapped ones first).
  void drain_all();

  /// Evicts one resident idle session to the swap tier (requires
  /// ServerOptions::swap). Exposed for drivers that want to shed memory
  /// eagerly instead of waiting for admission pressure. Throws for a
  /// non-idle, already-swapped, or unknown tenant.
  void swap_out(TenantId id);

  /// Evicts every resident idle session to the swap tier (requires
  /// ServerOptions::swap); returns how many were evicted.
  std::int64_t swap_out_idle();

  /// Residency + admission counters (live view of the report's lifecycle).
  const session::LifecycleCounters& lifecycle() const noexcept { return host_.lifecycle(); }

  /// Per-tenant totals, their sum, and the shared cache's own counters.
  ServerReport report() const;

  /// Recounts the session bookkeeping (SessionHost::audit_invariants) and
  /// throws ContractViolation on the first mismatch. Audit builds
  /// (-DCCS_AUDIT=ON) run it at run_until_idle entry; tests may call it in
  /// any build.
  void audit_invariants() const { host_.audit_invariants(); }

  iomodel::CacheSim& cache() noexcept { return *cache_; }

 private:
  ServerOptions options_;
  std::unique_ptr<iomodel::CacheSim> cache_;
  std::unique_ptr<TenantPolicy> policy_;
  SessionHost host_;  ///< After cache_: its streams run on the cache.
  iomodel::CacheStats baseline_;  ///< Shared-cache stats at construction.
  std::int64_t steps_ = 0;
};

}  // namespace ccs::core
