#include "core/server.h"

#include <algorithm>
#include <ostream>
#include <utility>

#include "util/contract.h"
#include "util/error.h"
#include "util/format.h"

namespace ccs::core {

namespace {

/// Fair timesharing: rotate through runnable tenants in id order, resuming
/// after the last pick.
class RoundRobinPolicy final : public TenantPolicy {
 public:
  TenantId pick(const std::vector<TenantStatus>& runnable) override {
    // First runnable id strictly greater than the last pick, else wrap.
    const TenantStatus* best = nullptr;
    const TenantStatus* lowest = nullptr;
    for (const TenantStatus& t : runnable) {
      if (lowest == nullptr || t.id < lowest->id) lowest = &t;
      if (t.id > last_ && (best == nullptr || t.id < best->id)) best = &t;
    }
    last_ = (best != nullptr ? best : lowest)->id;
    return last_;
  }

 private:
  TenantId last_ = kNoTenant;
};

/// Cache affinity: keep running the tenant whose last step missed least per
/// firing (its working set is the one currently resident), ties broken by
/// lowest id so the rule is deterministic.
class MissAwarePolicy final : public TenantPolicy {
 public:
  TenantId pick(const std::vector<TenantStatus>& runnable) override {
    const TenantStatus* best = nullptr;
    for (const TenantStatus& t : runnable) {
      if (best == nullptr || t.last_miss_rate < best->last_miss_rate ||
          (t.last_miss_rate == best->last_miss_rate && t.id < best->id)) {
        best = &t;
      }
    }
    return best->id;
  }
};

void write_run_result_json(std::ostream& os, const runtime::RunResult& r) {
  os << "{\"accesses\": " << r.cache.accesses << ", \"hits\": " << r.cache.hits
     << ", \"misses\": " << r.cache.misses << ", \"writebacks\": " << r.cache.writebacks
     << ", \"firings\": " << r.firings << ", \"source_firings\": " << r.source_firings
     << ", \"sink_firings\": " << r.sink_firings
     << ", \"state_misses\": " << r.state_misses
     << ", \"channel_misses\": " << r.channel_misses
     << ", \"io_misses\": " << r.io_misses << "}";
}

}  // namespace

TenantRegistry& TenantRegistry::global() {
  static TenantRegistry instance;
  static const bool initialized = (register_builtin_tenant_policies(instance), true);
  (void)initialized;
  return instance;
}

void register_builtin_tenant_policies(TenantRegistry& r) {
  r.add("round-robin", {[] { return std::make_unique<RoundRobinPolicy>(); },
                        "fair timesharing: rotate through runnable tenants in id order"});
  r.add("miss-aware", {[] { return std::make_unique<MissAwarePolicy>(); },
                       "cache affinity: prefer the tenant whose last step missed least "
                       "per firing"});
}

void ServerReport::write_json(std::ostream& os) const {
  os << "{\n  \"steps\": " << steps << ", \"retired_sessions\": " << retired_sessions
     << ",\n  \"aggregate\": ";
  write_run_result_json(os, aggregate);
  os << ",\n  \"retired\": ";
  write_run_result_json(os, retired);
  os << ",\n  \"shared_cache\": {\"accesses\": " << shared_cache.accesses
     << ", \"hits\": " << shared_cache.hits << ", \"misses\": " << shared_cache.misses
     << ", \"writebacks\": " << shared_cache.writebacks << "}";
  os << ",\n  ";
  write_lifecycle_json(os, lifecycle, swap_stored_bytes, swap_peak_stored_bytes);
  os << ",\n  \"tenants\": [";
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const TenantReport& t = tenants[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"id\": " << t.id << ", \"name\": \""
       << json_escape(t.name) << "\", \"state\": \"" << session::to_string(t.state)
       << "\", \"steps\": " << t.steps << ", \"outputs\": " << t.outputs
       << ", \"totals\": ";
    write_run_result_json(os, t.totals);
    os << "}";
  }
  os << "\n  ]\n}\n";
}

Server::Server(ServerOptions options, const TenantRegistry* registry)
    : options_(std::move(options)),
      host_("ServerOptions", options_.cache, options_.band_words, options_.admission,
            options_.budget, options_.swap) {
  const TenantRegistry& reg = registry != nullptr ? *registry : TenantRegistry::global();
  policy_ = reg.find(options_.tenant_policy).build();
  cache_ = std::make_unique<iomodel::LruCache>(options_.cache);
  baseline_ = cache_->stats();
}

TenantId Server::admit(std::string name, const sdf::SdfGraph& g,
                       const partition::Partition& p, StreamOptions options,
                       std::int64_t m) {
  const SessionHost::Session* s =
      host_.admit(std::move(name), g, p, std::move(options), m,
                  [this](SessionHost::Session&) -> iomodel::CacheSim& { return *cache_; });
  return s != nullptr ? s->id : kNoTenant;
}

TenantId Server::admit(std::string name, const Planner& planner, const Plan& plan,
                       StreamOptions options) {
  return admit(std::move(name), planner.graph(), plan.partition, std::move(options));
}

void Server::close(TenantId id) { host_.close(host_.session(id)); }

Stream& Server::stream(TenantId id) { return *host_.resident(id).stream; }

const std::string& Server::tenant_name(TenantId id) const { return host_.session(id).name; }

session::SessionState Server::state_of(TenantId id) const {
  return SessionHost::state_of(host_.session(id));
}

bool Server::swapped(TenantId id) const { return host_.session(id).stream == nullptr; }

void Server::swap_out(TenantId id) { host_.swap_out(id); }

std::int64_t Server::swap_out_idle() { return host_.swap_out_idle(); }

std::int64_t Server::push(TenantId id, std::int64_t items) {
  SessionHost::Session& t = host_.resident(id);
  const std::int64_t accepted = t.stream->push(items);
  if (accepted > 0) {
    t.idle = false;  // new arrivals may unblock the session
    host_.touch(id);
  }
  return accepted;
}

TenantId Server::step() {
  // Offer every not-known-idle resident tenant; a pick that turns out
  // blocked is marked idle and the offer repeats, so one step() call either
  // progresses some tenant or proves the whole server idle. Swapped tenants
  // are idle by construction, so walking the resident set (in id order, like
  // the table) leaves the offers unchanged.
  const std::map<TenantId, SessionHost::Session*>& resident = host_.resident_set();
  std::vector<TenantStatus> runnable;
  runnable.reserve(resident.size());
  for (;;) {
    runnable.clear();
    for (const auto& [id, t] : resident) {
      if (t->idle) continue;
      TenantStatus s;
      s.id = id;
      s.pending_inputs = t->stream->pending_inputs();
      s.outputs = t->stream->outputs_produced();
      s.steps = t->stream->steps();
      s.last_miss_rate = t->last_miss_rate;
      runnable.push_back(s);
    }
    if (runnable.empty()) return kNoTenant;

    const TenantId id = policy_->pick(runnable);
    const auto it = resident.find(id);
    CCS_CHECK(it != resident.end(), "tenant policy picked an invalid id");
    SessionHost::Session& t = *it->second;
    const StepResult r = t.stream->step();
    if (!r.progressed()) {
      t.idle = true;
      continue;
    }
    t.last_miss_rate = r.run.firings > 0 ? static_cast<double>(r.run.cache.misses) /
                                               static_cast<double>(r.run.firings)
                                         : 0.0;
    host_.touch(id);
    ++steps_;
    return id;
  }
}

std::int64_t Server::run_until_idle() {
  CCS_AUDIT_BLOCK(audit_invariants(););
  std::int64_t executed = 0;
  while (step() != kNoTenant) ++executed;
  return executed;
}

void Server::drain_all() {
  for (auto& [id, t] : host_.sessions()) {
    if (t.stream == nullptr) host_.rehydrate(t);
    t.stream->drain();
    t.idle = true;
  }
}

ServerReport Server::report() const {
  ServerReport report;
  report.steps = steps_;
  host_.fill_report(report, [](const SessionHost::Session&, TenantReport&) {});
  const iomodel::CacheStats& now = cache_->stats();
  report.shared_cache.accesses = now.accesses - baseline_.accesses;
  report.shared_cache.hits = now.hits - baseline_.hits;
  report.shared_cache.misses = now.misses - baseline_.misses;
  report.shared_cache.writebacks = now.writebacks - baseline_.writebacks;
  return report;
}

}  // namespace ccs::core
