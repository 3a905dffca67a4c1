#include "core/cluster.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "util/contract.h"
#include "util/error.h"
#include "util/format.h"
#include "util/stats.h"

namespace ccs::core {

namespace {

/// Shared "pure load balance" rule: least busy, then fewest tenants, then
/// the session's current worker, then lowest id (every tie must break
/// deterministically -- the cluster's repeat-run guarantee rides on it).
/// The current worker's tenant count excludes the session being placed:
/// moving it elsewhere would not lighten the current worker by more than
/// the session itself, so an equally-loaded target is never worth a move.
WorkerId pick_least_loaded(const PlacementRequest& request,
                           const std::vector<ClusterWorkerStatus>& workers) {
  const auto effective_tenants = [&](const ClusterWorkerStatus& w) {
    return w.id == request.current ? w.tenants - 1 : w.tenants;
  };
  const ClusterWorkerStatus* best = nullptr;
  for (const ClusterWorkerStatus& w : workers) {
    if (best == nullptr) {
      best = &w;
      continue;
    }
    if (w.busy != best->busy) {
      if (w.busy < best->busy) best = &w;
      continue;
    }
    if (effective_tenants(w) != effective_tenants(*best)) {
      if (effective_tenants(w) < effective_tenants(*best)) best = &w;
      continue;
    }
    if (w.id == request.current && best->id != request.current) best = &w;
  }
  return best->id;
}

/// Static striping: admissions cycle through workers; a placed session
/// never moves (the zero-migration baseline).
class RoundRobinPlacement final : public PlacementPolicy {
 public:
  WorkerId place(const PlacementRequest& request,
                 const std::vector<ClusterWorkerStatus>& workers) override {
    if (request.current != kNoWorker) return request.current;
    const WorkerId w = static_cast<WorkerId>(
        next_ % static_cast<std::int64_t>(workers.size()));
    ++next_;
    return w;
  }

 private:
  std::int64_t next_ = 0;
};

/// Follow the busy-time balance wherever it points, ignoring cache state --
/// the pure load-balance extreme of the paper's §7 trade; every move pays
/// real reload misses.
class LeastLoadedPlacement final : public PlacementPolicy {
 public:
  WorkerId place(const PlacementRequest& request,
                 const std::vector<ClusterWorkerStatus>& workers) override {
    return pick_least_loaded(request, workers);
  }
};

/// Shared cache-affinity rule: the worker whose private L1 holds the most
/// of the session's working set wins; the current worker wins residency
/// ties, so a warm session never bounces between equally-warm workers. A
/// cold session (no blocks resident anywhere) falls back to least-loaded.
/// Factored out because the adaptive policy must reproduce it exactly when
/// its migration thresholds never fire (the differential-test contract).
WorkerId pick_affinity(const PlacementRequest& request,
                       const std::vector<ClusterWorkerStatus>& workers) {
  WorkerId best = kNoWorker;
  std::int64_t best_resident = 0;
  for (const ClusterWorkerStatus& w : workers) {
    const auto slot = static_cast<std::size_t>(w.id);
    const std::int64_t resident =
        slot < request.resident_blocks.size() ? request.resident_blocks[slot] : 0;
    const bool warmer = resident > best_resident;
    const bool tied_at_current =
        resident == best_resident && resident > 0 && w.id == request.current;
    if (warmer || tied_at_current) {
      best = w.id;
      best_resident = resident;
    }
  }
  return best != kNoWorker ? best : pick_least_loaded(request, workers);
}

class AffinityPlacement final : public PlacementPolicy {
 public:
  WorkerId place(const PlacementRequest& request,
                 const std::vector<ClusterWorkerStatus>& workers) override {
    return pick_affinity(request, workers);
  }
};

/// Footprint-driven placement: affinity while everyone fits, headroom-
/// seeking when the affinity choice is oversubscribed by hot footprints.
/// The policy itself is stateless and threshold-free -- the cluster
/// classifies sessions (placement::FootprintEstimator) and fills the
/// request/status footprint fields; a cold or express session always takes
/// the plain affinity path, which is what makes never-fire adaptive
/// placement decision-for-decision identical to "affinity".
class AdaptivePlacement final : public PlacementPolicy {
 public:
  bool adaptive() const noexcept override { return true; }

  WorkerId place(const PlacementRequest& request,
                 const std::vector<ClusterWorkerStatus>& workers) override {
    const WorkerId home = pick_affinity(request, workers);
    if (!request.hot || request.footprint_words <= 0) return home;
    // Hot pressure on w if this session ran there: its footprint moves with
    // it, so it stops counting against its current worker.
    const auto pressure_with = [&](const ClusterWorkerStatus& w) {
      const std::int64_t others =
          w.id == request.current ? w.hot_words - request.footprint_words : w.hot_words;
      return others + request.footprint_words;
    };
    const ClusterWorkerStatus& chosen = workers[static_cast<std::size_t>(home)];
    if (pressure_with(chosen) <= chosen.l1_words) return home;
    // The affinity choice cannot hold this session's working set alongside
    // the other hot tenants: shed to the worker with the most headroom.
    // Ties prefer the current worker (a symmetric overload never migrates),
    // then the least busy, then the lowest id.
    const ClusterWorkerStatus* best = nullptr;
    std::int64_t best_headroom = 0;
    for (const ClusterWorkerStatus& w : workers) {
      const std::int64_t headroom = w.l1_words - pressure_with(w);
      if (best == nullptr) {
        best = &w;
        best_headroom = headroom;
        continue;
      }
      if (headroom != best_headroom) {
        if (headroom > best_headroom) {
          best = &w;
          best_headroom = headroom;
        }
        continue;
      }
      if ((w.id == request.current) != (best->id == request.current)) {
        if (w.id == request.current) best = &w;
        continue;
      }
      if (w.busy < best->busy) best = &w;
    }
    return best->id;
  }
};

void write_cache_stats_json(std::ostream& os, const iomodel::CacheStats& s) {
  os << "{\"accesses\": " << s.accesses << ", \"hits\": " << s.hits
     << ", \"misses\": " << s.misses << ", \"writebacks\": " << s.writebacks << "}";
}

void write_histogram_json(std::ostream& os, const latency::Histogram& h) {
  os << "{\"samples\": " << h.count() << ", \"cycles\": " << h.sum()
     << ", \"p50\": " << h.p50() << ", \"p95\": " << h.p95()
     << ", \"p99\": " << h.p99() << ", \"max\": " << h.max() << "}";
}

}  // namespace

PlacementRegistry& PlacementRegistry::global() {
  static PlacementRegistry instance;
  static const bool initialized = (register_builtin_placements(instance), true);
  (void)initialized;
  return instance;
}

void register_builtin_placements(PlacementRegistry& r) {
  r.add("round-robin",
        {[] { return std::make_unique<RoundRobinPlacement>(); },
         "static striping at admission; a placed session never migrates"});
  r.add("least-loaded",
        {[] { return std::make_unique<LeastLoadedPlacement>(); },
         "follow the busy-time balance, ignoring cache state (pays reloads)"});
  r.add("affinity",
        {[] { return std::make_unique<AffinityPlacement>(); },
         "keep a session on the worker whose private cache holds its working "
         "set; least-loaded when cold"});
  r.add("adaptive",
        {[] { return std::make_unique<AdaptivePlacement>(); },
         "affinity, plus footprint-driven shedding when a worker's private "
         "cache is oversubscribed by hot working sets or thrashing"});
}

std::int64_t ClusterReport::makespan() const {
  std::int64_t worst = 0;
  for (const ClusterWorkerReport& w : workers) worst = std::max(worst, w.busy);
  return worst;
}

double ClusterReport::imbalance() const {
  std::vector<std::int64_t> busy;
  busy.reserve(workers.size());
  for (const ClusterWorkerReport& w : workers) busy.push_back(w.busy);
  return busy_imbalance(busy);
}

void ClusterReport::write_json(std::ostream& os) const {
  std::ostringstream balance;
  balance << std::setprecision(15) << imbalance();
  os << "{\n  \"placement\": \"" << json_escape(placement) << "\""
     << ", \"workers\": " << workers.size() << ", \"llc_shards\": " << llc_shards
     << ", \"steps\": " << steps
     << ", \"rounds\": " << rounds << ", \"migrations\": " << migrations
     << ", \"auto_migrations\": " << auto_migrations
     << ", \"migration_noops\": " << migration_noops
     << ", \"retired_sessions\": " << retired_sessions
     << ", \"makespan\": " << makespan() << ", \"imbalance\": " << balance.str();
  os << ",\n  ";
  write_lifecycle_json(os, lifecycle, swap_stored_bytes, swap_peak_stored_bytes);
  os << ",\n  \"retired\": {\"accesses\": " << retired.cache.accesses
     << ", \"misses\": " << retired.cache.misses
     << ", \"firings\": " << retired.firings
     << ", \"source_firings\": " << retired.source_firings
     << ", \"sink_firings\": " << retired.sink_firings << "}"
     << ",\n  \"aggregate\": {\"accesses\": " << aggregate.cache.accesses
     << ", \"hits\": " << aggregate.cache.hits
     << ", \"misses\": " << aggregate.cache.misses
     << ", \"writebacks\": " << aggregate.cache.writebacks
     << ", \"firings\": " << aggregate.firings
     << ", \"source_firings\": " << aggregate.source_firings
     << ", \"sink_firings\": " << aggregate.sink_firings
     << ", \"state_misses\": " << aggregate.state_misses
     << ", \"channel_misses\": " << aggregate.channel_misses
     << ", \"io_misses\": " << aggregate.io_misses << "},\n  \"llc\": ";
  write_cache_stats_json(os, llc);
  // The whole latency block on ONE line (mirroring "lifecycle" above): the
  // uniform-model strict-extension gate strips it with `grep -v '"latency"'`
  // and byte-compares the rest against the pre-latency golden capture.
  os << ",\n  \"latency\": {\"cost_model\": \"" << json_escape(cost_model)
     << "\", \"slo_p99\": " << slo_p99 << ", \"total_cost\": " << aggregate.cost
     << ", \"aggregate\": ";
  write_histogram_json(os, aggregate.latency);
  os << ", \"workers\": [";
  for (std::size_t w = 0; w < workers.size(); ++w) {
    os << (w == 0 ? "" : ", ");
    write_histogram_json(os, workers[w].latency);
  }
  os << "], \"tenants\": [";
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const ClusterTenantReport& t = tenants[i];
    os << (i == 0 ? "" : ", ") << "{\"id\": " << t.id
       << ", \"cost\": " << t.totals.cost << ", \"hist\": ";
    write_histogram_json(os, t.totals.latency);
    os << ", \"slo_ok\": "
       << (slo_p99 <= 0 || t.totals.latency.p99() <= slo_p99 ? "true" : "false")
       << "}";
  }
  os << "]}";
  os << ",\n  \"worker_table\": [";
  for (std::size_t w = 0; w < workers.size(); ++w) {
    os << (w == 0 ? "\n" : ",\n") << "    {\"worker\": " << w
       << ", \"busy\": " << workers[w].busy << ", \"steps\": " << workers[w].steps
       << ", \"tenants\": " << workers[w].tenants << ", \"l1\": ";
    write_cache_stats_json(os, workers[w].l1);
    os << "}";
  }
  os << "\n  ],\n  \"tenants\": [";
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const ClusterTenantReport& t = tenants[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"id\": " << t.id << ", \"name\": \""
       << json_escape(t.name) << "\", \"state\": \"" << session::to_string(t.state)
       << "\", \"worker\": " << t.worker << ", \"steps\": " << t.steps
       << ", \"outputs\": " << t.outputs << ", \"migrations\": " << t.migrations
       << ", \"accesses\": " << t.totals.cache.accesses
       << ", \"misses\": " << t.totals.cache.misses
       << ", \"writebacks\": " << t.totals.cache.writebacks
       << ", \"firings\": " << t.totals.firings
       << ", \"source_firings\": " << t.totals.source_firings
       << ", \"sink_firings\": " << t.totals.sink_firings << "}";
  }
  os << "\n  ]\n}\n";
}

Cluster::Cluster(ClusterOptions options, const PlacementRegistry* registry)
    : options_(std::move(options)),
      pool_(runtime::WorkerPoolOptions{options_.workers, options_.l1,
                                       options_.llc_words, options_.llc_shards}),
      host_("ClusterOptions", options_.l1, options_.band_words, options_.admission,
            options_.budget, options_.swap, &cost_model_) {
  const PlacementRegistry& reg =
      registry != nullptr ? *registry : PlacementRegistry::global();
  latency::CostContext cost_ctx;
  cost_ctx.workers = options_.workers;
  cost_ctx.llc_shards = options_.llc_shards;
  cost_ctx.has_llc = options_.llc_words > 0;
  cost_model_ = latency::CostModelRegistry::global().build(options_.cost_model, cost_ctx);
  policy_ = reg.find(options_.placement).build();
  workers_.resize(static_cast<std::size_t>(pool_.size()));
  // The estimator classifies against the cache a session actually runs in.
  if (options_.adaptive.footprint.budget_words == 0) {
    options_.adaptive.footprint.budget_words = options_.l1.capacity_words;
  }
  estimator_ = placement::FootprintEstimator(options_.adaptive.footprint);
  l1_window_base_.resize(static_cast<std::size_t>(pool_.size()));
}

TenantId Cluster::admit(std::string name, const sdf::SdfGraph& g,
                        const partition::Partition& p, StreamOptions options,
                        std::int64_t m) {
  Tenant* placed = host_.admit(
      std::move(name), g, p, std::move(options), m, [this](Tenant& t) -> iomodel::CacheSim& {
        PlacementRequest request;
        request.tenant = t.id;
        request.current = kNoWorker;
        request.state_words = t.plan->layout->state_words();
        request.resident_blocks.assign(static_cast<std::size_t>(pool_.size()), 0);
        t.worker = checked_placement(request);
        return pool_.worker_cache(t.worker);
      });
  if (placed == nullptr) return kNoTenant;
  Worker& worker = workers_[static_cast<std::size_t>(placed->worker)];
  worker.tenants.push_back(placed);
  ++worker.runnable;  // a new session is not idle until a step finds it blocked
  // Seed the footprint estimate from the gain-analysis layout (state plus
  // channel rings) -- the paper's working-set bound made concrete.
  const runtime::FootprintSample seed = placed->stream->footprint_sample();
  estimator_.add_session(placed->id, seed.layout_words, seed.state_words);
  return placed->id;
}

TenantId Cluster::admit(std::string name, const Planner& planner, const Plan& plan,
                        StreamOptions options) {
  return admit(std::move(name), planner.graph(), plan.partition, std::move(options));
}

Stream& Cluster::stream(TenantId id) { return *host_.resident(id).stream; }

const Stream& Cluster::stream(TenantId id) const { return host_.stream(id); }

const std::string& Cluster::tenant_name(TenantId id) const { return host_.session(id).name; }

WorkerId Cluster::worker_of(TenantId id) const { return host_.session(id).worker; }

session::SessionState Cluster::state_of(TenantId id) const {
  return SessionHost::state_of(host_.session(id));
}

bool Cluster::swapped(TenantId id) const { return host_.session(id).stream == nullptr; }

void Cluster::swap_out(TenantId id) { host_.swap_out(id); }

std::int64_t Cluster::swap_out_idle() { return host_.swap_out_idle(); }

void Cluster::close(TenantId id) {
  Tenant& t = host_.session(id);
  mark_idle(t);
  Worker& home = workers_[static_cast<std::size_t>(t.worker)];
  home.tenants.erase(std::find(home.tenants.begin(), home.tenants.end(), &t));
  home.cursor = 0;  // keep the rotation point deterministic after the edit
  estimator_.remove_session(id);
  host_.close(t);
}

std::int64_t Cluster::push(TenantId id, std::int64_t items) {
  Tenant& t = host_.resident(id);
  const std::int64_t accepted = t.stream->push(items);
  if (accepted > 0) {
    mark_runnable(t);  // new arrivals may unblock the session
    host_.touch(id);
  }
  return accepted;
}

void Cluster::mark_idle(Tenant& t) {
  if (t.idle) return;
  t.idle = true;
  --workers_[static_cast<std::size_t>(t.worker)].runnable;
}

void Cluster::mark_runnable(Tenant& t) {
  if (!t.idle) return;
  t.idle = false;
  ++workers_[static_cast<std::size_t>(t.worker)].runnable;
}

bool Cluster::worker_step(WorkerId w) {
  Worker& worker = workers_[static_cast<std::size_t>(w)];
  // Nothing runnable: the scan below would find every tenant idle and leave
  // the cursor where it is, so skipping it changes no decision.
  if (worker.runnable == 0) return false;
  const std::size_t n = worker.tenants.size();
  for (std::size_t probe = 0; probe < n; ++probe) {
    const std::size_t slot = (worker.cursor + probe) % n;
    Tenant& t = *worker.tenants[slot];
    if (t.idle) continue;  // swapped tenants are idle, so never stepped
    const StepResult r = t.stream->step();
    if (!r.progressed()) {
      t.idle = true;  // stays blocked until the controlling thread pushes
      --worker.runnable;
      continue;
    }
    // Virtual time advances by the step's modeled cost (== firings under
    // the "uniform" model, preserving the pre-latency clock bit-for-bit).
    worker.busy += r.run.cost;
    worker.latency.record(r.run.cost);
    ++worker.steps;
    worker.cursor = (slot + 1) % n;
    return true;
  }
  return false;
}

std::int64_t Cluster::step_round() {
  std::int64_t progressed = 0;
  for (WorkerId w = 0; w < worker_count(); ++w) {
    if (worker_step(w)) ++progressed;
  }
  if (progressed > 0) ++rounds_;
  return progressed;
}

std::int64_t Cluster::run_until_idle() {
  CCS_AUDIT_BLOCK(audit_invariants(););
  adapt();
  std::int64_t executed = 0;
  for (std::int64_t p = step_round(); p > 0; p = step_round()) executed += p;
  return executed;
}

std::int64_t Cluster::run_threads() {
  CCS_AUDIT_BLOCK(audit_invariants(););
  adapt();  // on the controlling thread, while still quiescent -- exactly
            // the adaptation point run_until_idle uses, so both modes see
            // identical placements before the first step.
  // One thread per worker, each running the same worker_step loop virtual
  // time runs. A worker touches only its own Worker struct, its own
  // tenants, and its own private L1; the shared LLC is the only contended
  // state and SharedLlcCache serializes it internally.
  std::vector<std::int64_t> executed(static_cast<std::size_t>(worker_count()), 0);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(worker_count()));
  for (WorkerId w = 0; w < worker_count(); ++w) {
    threads.emplace_back([this, w, &executed] {
      while (worker_step(w)) ++executed[static_cast<std::size_t>(w)];
    });
  }
  for (std::thread& t : threads) t.join();
  std::int64_t total = 0;
  for (const std::int64_t e : executed) total += e;
  return total;
}

std::vector<ClusterWorkerStatus> Cluster::worker_statuses() const {
  std::vector<ClusterWorkerStatus> out;
  out.reserve(static_cast<std::size_t>(worker_count()));
  for (WorkerId w = 0; w < worker_count(); ++w) {
    const Worker& worker = workers_[static_cast<std::size_t>(w)];
    ClusterWorkerStatus s;
    s.id = w;
    s.busy = worker.busy;
    s.steps = worker.steps;
    s.tenants = static_cast<std::int32_t>(worker.tenants.size());
    s.misses = pool_.worker_stats(w).misses;
    s.l1_words = options_.l1.capacity_words;
    out.push_back(s);
  }
  if (adaptive_active()) {
    // Only resident sessions carry cache pressure (a swapped one has no
    // live footprint), so the resident set is all there is to sum.
    for (const auto& [id, t] : host_.resident_set()) {
      if (estimator_.hot(id)) {
        out[static_cast<std::size_t>(t->worker)].hot_words += estimator_.footprint_words(id);
      }
    }
  }
  return out;
}

PlacementRequest Cluster::request_for(TenantId id) const {
  const Tenant& t = host_.session(id);
  PlacementRequest request;
  request.tenant = id;
  request.current = t.worker;
  // Module-state words, the same number admit() reports -- a policy
  // thresholding on state_words must see one number.
  request.state_words = t.plan->layout->state_words();
  request.resident_blocks.reserve(static_cast<std::size_t>(pool_.size()));
  for (WorkerId w = 0; w < worker_count(); ++w) {
    request.resident_blocks.push_back(pool_.resident_blocks(w, t.stream->layout_span()));
  }
  if (adaptive_active()) {
    request.footprint_words = estimator_.footprint_words(id);
    request.hot = estimator_.hot(id);
  }
  return request;
}

WorkerId Cluster::checked_placement(const PlacementRequest& request) {
  const WorkerId w = policy_->place(request, worker_statuses());
  CCS_CHECK(w >= 0 && w < worker_count(), "placement policy picked an invalid worker");
  return w;
}

std::int64_t Cluster::rebalance() {
  std::int64_t moved = 0;
  // Swapped tenants stay pinned: they have no cache state to be affine to,
  // and no live footprint to shed; they re-enter placement churn only after
  // rehydration. Moving a resident tenant leaves the resident set as it
  // is, so the set can be walked while migrating.
  for (const auto& [id, t] : host_.resident_set()) {
    const WorkerId target = checked_placement(request_for(id));
    if (target != t->worker) {
      migrate(id, target);
      ++moved;
    }
  }
  return moved;
}

std::int64_t Cluster::adapt() {
  if (!policy_->adaptive()) return 0;
  observe_footprints();
  if (!options_.adaptive.migrate) return 0;
  if (!migration_trigger_fired()) return 0;
  const std::int64_t moved = rebalance();
  auto_migrations_ += moved;
  return moved;
}

void Cluster::observe_footprints() {
  // Swapped sessions have no live traffic to window; they are not observed.
  for (const auto& [id, t] : host_.resident_set()) {
    const runtime::FootprintSample sample = t->stream->footprint_sample();
    placement::FootprintObservation o;
    o.accesses = sample.accesses;
    o.misses = sample.misses;
    o.resident_words = pool_.resident_words(t->worker, t->stream->layout_span());
    estimator_.observe(id, o);
  }
}

bool Cluster::migration_trigger_fired() {
  const placement::AdaptiveOptions& a = options_.adaptive;
  bool fired = false;
  // Oversubscription: some worker's resident hot footprints exceed its
  // allowance of the private cache.
  const std::int64_t allowance = options_.l1.capacity_words * a.oversub_permille / 1000;
  std::vector<std::int64_t> hot_words(workers_.size(), 0);
  for (const auto& [id, t] : host_.resident_set()) {
    if (estimator_.hot(id)) {
      hot_words[static_cast<std::size_t>(t->worker)] += estimator_.footprint_words(id);
    }
  }
  for (const std::int64_t pressure : hot_words) {
    if (pressure > allowance) fired = true;
  }
  // Thrash: a busy worker's private-L1 window miss rate at the threshold.
  // Under the inclusive hierarchy every private miss is one shared-LLC
  // probe, so this is equally the worker's LLC pressure-delta signal -- and
  // unlike raw LLC hit/miss splits it is identical across execution modes.
  for (WorkerId w = 0; w < worker_count(); ++w) {
    const iomodel::CacheStats& now = pool_.worker_stats(w);
    iomodel::CacheStats& base = l1_window_base_[static_cast<std::size_t>(w)];
    const std::int64_t accesses = now.accesses - base.accesses;
    const std::int64_t misses = now.misses - base.misses;
    base = now;  // every adaptation point starts a fresh window
    if (!workers_[static_cast<std::size_t>(w)].tenants.empty() &&
        accesses >= a.min_window_accesses &&
        misses * 1000 >= a.thrash_miss_permille * accesses) {
      fired = true;
    }
  }
  return fired;
}

void Cluster::migrate(TenantId id, WorkerId target) {
  Tenant& t = host_.session(id);
  CCS_EXPECTS(target >= 0 && target < worker_count(), "worker id out of range");
  if (t.stream == nullptr) host_.rehydrate(t);  // a move touches live state
  if (t.worker == target) {
    // Counted no-op: nothing reloads, nothing moves, but drivers retrying
    // placement decisions can see how often they asked for one.
    ++migration_noops_;
    return;
  }
  Worker& from = workers_[static_cast<std::size_t>(t.worker)];
  from.tenants.erase(std::find(from.tenants.begin(), from.tenants.end(), &t));
  from.cursor = 0;  // keep the rotation point deterministic after the edit
  Worker& to = workers_[static_cast<std::size_t>(target)];
  to.tenants.push_back(&t);
  if (!t.idle) {
    --from.runnable;
    ++to.runnable;
  }
  t.cache = &pool_.worker_cache(target);
  t.stream->migrate_cache(*t.cache);
  t.worker = target;
  ++t.migrations;
  ++migrations_;
}

void Cluster::audit_invariants() const {
  host_.audit_invariants();
  const std::map<TenantId, Tenant>& sessions = host_.sessions();
  // Slot lists: every entry is an open tenant placed on that worker, and
  // every open tenant appears exactly once across all lists.
  std::set<TenantId> placed;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    const Worker& worker = workers_[w];
    std::int64_t runnable = 0;
    for (const Tenant* t : worker.tenants) {
      const auto it = sessions.find(t->id);
      CCS_CHECK(it != sessions.end() && &it->second == t,
                "worker slot does not point at an open tenant");
      CCS_CHECK(t->worker == static_cast<WorkerId>(w), "tenant slotted on a foreign worker");
      CCS_CHECK(t->cache == &pool_.worker_cache(t->worker),
                "tenant rehydrates on a foreign worker's cache");
      CCS_CHECK(placed.insert(t->id).second, "tenant slotted more than once");
      if (!t->idle) ++runnable;
    }
    CCS_CHECK(worker.runnable == runnable, "worker runnable count is off");
    CCS_CHECK(worker.cursor == 0 || worker.cursor < worker.tenants.size(),
              "worker rotation cursor outside its slot list");
  }
  CCS_CHECK(placed.size() == sessions.size(), "open tenant missing from every worker");
  for (const auto& [id, t] : sessions) {
    CCS_CHECK(estimator_.contains(id), "open tenant missing from the footprint estimator");
  }
  CCS_CHECK(static_cast<std::size_t>(estimator_.session_count()) == sessions.size(),
            "footprint estimator holds a closed tenant");
}

void Cluster::drain_all() {
  for (auto& [id, t] : host_.sessions()) {
    if (t.stream == nullptr) host_.rehydrate(t);
    const runtime::RunResult r = t.stream->drain();
    // Drain work executes on the tenant's worker cache; account its cost
    // there so makespan covers the tail work too (it is priced but not a
    // histogram sample -- see Stream::drain).
    workers_[static_cast<std::size_t>(t.worker)].busy += r.cost;
    mark_idle(t);
  }
}

ClusterReport Cluster::report() const {
  ClusterReport report;
  report.placement = options_.placement;
  report.cost_model = options_.cost_model;
  report.slo_p99 = options_.slo_p99;
  report.llc_shards = pool_.llc_shards();
  report.rounds = rounds_;
  report.migrations = migrations_;
  report.auto_migrations = auto_migrations_;
  report.migration_noops = migration_noops_;
  host_.fill_report(report, [](const Tenant& t, ClusterTenantReport& row) {
    row.worker = t.worker;
    row.migrations = t.migrations;
  });
  for (WorkerId w = 0; w < worker_count(); ++w) {
    const Worker& worker = workers_[static_cast<std::size_t>(w)];
    ClusterWorkerReport row;
    row.l1 = pool_.worker_stats(w);
    row.busy = worker.busy;
    row.latency = worker.latency;
    row.steps = worker.steps;
    row.tenants = static_cast<std::int32_t>(worker.tenants.size());
    report.steps += worker.steps;
    report.workers.push_back(row);
  }
  if (pool_.has_llc()) report.llc = pool_.llc_stats();
  return report;
}

schedule::ParallelResult simulate_parallel_on_pool(const sdf::SdfGraph& g,
                                                   const partition::Partition& p,
                                                   std::int64_t m,
                                                   runtime::WorkerPool& pool,
                                                   std::int64_t min_outputs) {
  std::vector<iomodel::CacheSim*> caches;
  caches.reserve(static_cast<std::size_t>(pool.size()));
  for (std::int32_t w = 0; w < pool.size(); ++w) caches.push_back(&pool.worker_cache(w));
  iomodel::CacheStats llc_before;
  if (pool.has_llc()) llc_before = pool.llc_stats();
  schedule::ParallelResult result =
      schedule::simulate_parallel_homogeneous(g, p, m, caches, min_outputs);
  if (pool.has_llc()) {
    const iomodel::CacheStats& now = pool.llc_stats();
    result.llc.accesses = now.accesses - llc_before.accesses;
    result.llc.hits = now.hits - llc_before.hits;
    result.llc.misses = now.misses - llc_before.misses;
    result.llc.writebacks = now.writebacks - llc_before.writebacks;
  }
  return result;
}

}  // namespace ccs::core
