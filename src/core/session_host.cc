#include "core/session_host.h"

#include <ostream>
#include <utility>

#include "util/contract.h"
#include "util/error.h"

namespace ccs::core {

namespace {

// The engine reserves [2^40, ...) for external streams; session bands must
// stay below it (mirrors kExternalInBase in runtime/engine.cc).
constexpr std::int64_t kBandSpaceWords = std::int64_t{1} << 40;

}  // namespace

void write_lifecycle_json(std::ostream& os, const session::LifecycleCounters& lifecycle,
                          std::int64_t swap_stored_bytes,
                          std::int64_t swap_peak_stored_bytes) {
  os << "\"lifecycle\": {\"sessions_opened\": " << lifecycle.sessions_opened
     << ", \"sessions_closed\": " << lifecycle.sessions_closed
     << ", \"live_sessions\": " << lifecycle.live_sessions
     << ", \"swapped_sessions\": " << lifecycle.swapped_sessions
     << ", \"peak_live\": " << lifecycle.peak_live
     << ", \"resident_words\": " << lifecycle.resident_words
     << ", \"peak_resident_words\": " << lifecycle.peak_resident_words
     << ", \"swap_outs\": " << lifecycle.swap_outs
     << ", \"swap_ins\": " << lifecycle.swap_ins
     << ", \"admissions_rejected\": " << lifecycle.admissions_rejected
     << ", \"admissions_queued\": " << lifecycle.admissions_queued
     << ", \"swap_stored_bytes\": " << swap_stored_bytes
     << ", \"swap_peak_stored_bytes\": " << swap_peak_stored_bytes << "}";
}

SessionHost::SessionHost(std::string options_name, const iomodel::CacheConfig& cache,
                         std::int64_t band_words, const std::string& admission,
                         const session::AdmissionBudget& budget, bool swap,
                         const latency::CostModel* cost_model)
    : options_name_(std::move(options_name)),
      cache_(cache),
      band_words_(band_words),
      swap_enabled_(swap),
      cost_model_(cost_model) {
  validate_cache_geometry(cache_);
  admission_ = session::AdmissionRegistry::global().build(admission, budget);
  if (band_words_ < cache_.block_words || band_words_ % cache_.block_words != 0) {
    throw Error("band_words must be a positive multiple of the cache block size");
  }
}

std::int64_t SessionHost::allocate_band() {
  // Smallest free band first (deterministic), else extend.
  if (!free_bands_.empty()) {
    const std::int64_t band = *free_bands_.begin();
    free_bands_.erase(free_bands_.begin());
    return band;
  }
  if (next_band_ >= kBandSpaceWords / band_words_) {
    throw Error("address space exhausted: at most " +
                std::to_string(kBandSpaceWords / band_words_) +
                " co-open sessions at band_words=" + std::to_string(band_words_) +
                " (close sessions or shrink " + options_name_ + "::band_words)");
  }
  return next_band_++;
}

SessionHost::Session* SessionHost::admit(std::string name, const sdf::SdfGraph& g,
                                         const partition::Partition& p,
                                         StreamOptions options, std::int64_t m,
                                         const Place& place) {
  CCS_EXPECTS(!name.empty(), "tenant name must be non-empty");
  CCS_EXPECTS(m >= 0, "tenant cache share must be non-negative");
  if (names_.count(name) != 0) throw Error("tenant '" + name + "' is already admitted");

  // Build the session's plan and price it before building anything else:
  // the admission decision needs its layout footprint, a pure function of
  // the graph and the online policy's buffer capacities.
  auto plan = std::make_shared<StreamPlan>(g, p, m > 0 ? m : cache_.capacity_words,
                                           cache_.block_words, std::move(options));
  const std::int64_t layout_words = plan->layout->footprint_words();
  if (layout_words > band_words_) {
    throw Error("session layout (" + std::to_string(layout_words) +
                " words) exceeds band_words (" + std::to_string(band_words_) + "); raise " +
                options_name_ + "::band_words");
  }

  session::AdmissionRequest request;
  request.layout_words = layout_words;
  bool evicted_for_room = false;
  for (;;) {
    session::AdmissionLoad load;
    load.live_sessions = lifecycle_.live_sessions;
    load.resident_words = lifecycle_.resident_words;
    if (admission_->admits(load, request)) break;
    // Make room by evicting the least-recently-active idle session; a
    // session doing work is never a victim (it would have to rehydrate
    // before its very next step).
    const session::SwapManager::SessionKey victim =
        swap_enabled_
            ? swap_.victim_if([this](session::SwapManager::SessionKey k) {
                return resident_.at(static_cast<TenantId>(k))->idle;
              })
            : session::SwapManager::kNone;
    if (victim == session::SwapManager::kNone) {
      ++lifecycle_.admissions_rejected;
      return nullptr;
    }
    evict(*resident_.at(static_cast<TenantId>(victim)));
    evicted_for_room = true;
  }
  if (evicted_for_room) ++lifecycle_.admissions_queued;

  const TenantId id = next_id_;
  Session s;
  s.id = id;
  s.name = std::move(name);
  s.band = allocate_band();
  plan->options.engine.address_base = s.band * band_words_;
  s.plan = std::move(plan);
  s.cache = &place(s);
  s.stream = std::make_unique<Stream>(s.plan, *s.cache);
  s.stream->set_cost_model(cost_model_);
  CCS_CHECK(s.stream->layout_span().words == layout_words,
            "admission pricing disagrees with the built engine's layout");

  const auto [it, inserted] = sessions_.emplace(id, std::move(s));
  CCS_CHECK(inserted, "tenant id reused");
  ++next_id_;
  Session& opened = it->second;
  names_.insert(opened.name);
  resident_.emplace(id, &opened);
  ++lifecycle_.sessions_opened;
  lifecycle_.on_resident(layout_words);
  swap_.admit(id);
  return &opened;
}

void SessionHost::close(Session& s) {
  const TenantId id = s.id;  // `s` dies with its table entry below
  if (s.stream != nullptr) {
    retired_ += s.stream->stats();
    lifecycle_.on_nonresident(s.plan->layout->footprint_words());
    resident_.erase(id);
  } else {
    // Swapped: the cached summary holds the totals; drop the image.
    retired_ += s.totals;
    --lifecycle_.swapped_sessions;
  }
  swap_.erase(id);
  names_.erase(s.name);
  free_bands_.insert(s.band);
  sessions_.erase(id);
  ++lifecycle_.sessions_closed;
}

void SessionHost::throw_unknown(TenantId id) const {
  std::string msg = "unknown tenant id " + std::to_string(id) + "; live tenants:";
  if (sessions_.empty()) {
    msg += " (none)";
  } else {
    bool first = true;
    for (const auto& [sid, s] : sessions_) {
      msg += (first ? " " : ", ");
      msg += std::to_string(sid) + " '" + s.name + "'";
      first = false;
    }
  }
  throw Error(msg);
}

SessionHost::Session& SessionHost::session(TenantId id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) throw_unknown(id);
  return it->second;
}

const SessionHost::Session& SessionHost::session(TenantId id) const {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) throw_unknown(id);
  return it->second;
}

SessionHost::Session& SessionHost::resident(TenantId id) {
  Session& s = session(id);
  if (s.stream == nullptr) rehydrate(s);
  return s;
}

const Stream& SessionHost::stream(TenantId id) const {
  const Session& s = session(id);
  if (s.stream == nullptr) {
    throw Error("tenant " + std::to_string(id) +
                " is swapped out; use the non-const accessor to rehydrate");
  }
  return *s.stream;
}

void SessionHost::evict(Session& s) {
  CCS_EXPECTS(s.stream != nullptr, "tenant is already swapped out");
  CCS_EXPECTS(s.idle, "only idle sessions can be swapped out");
  const StreamState state = s.stream->save_state();
  s.totals = state.totals;
  s.steps = state.steps;
  s.outputs = s.stream->outputs_produced();
  session::SwapImage image = session::SwapImage::pack(state);
  // The packed image is the only copy of the session once the Stream is
  // freed; audit builds prove the codec round-trips this very state before
  // the original is destroyed.
  CCS_AUDIT(image.unpack() == state, "swap image does not round-trip the session snapshot");
  swap_.swap_out(s.id, std::move(image));
  s.stream.reset();  // frees the engine's channels and counters; the plan stays
  resident_.erase(s.id);
  lifecycle_.on_nonresident(s.plan->layout->footprint_words());
  ++lifecycle_.swapped_sessions;
  ++lifecycle_.swap_outs;
}

void SessionHost::rehydrate(Session& s) {
  CCS_EXPECTS(s.stream == nullptr, "tenant is not swapped out");
  // Rebuilding the Stream issues no cache traffic, and restore_state only
  // rewrites host-side counters -- the simulated cache is untouched, so the
  // rehydrated session behaves bit-identically to one never swapped. It
  // comes back on the cache that last served it, so placement decisions
  // are the same with and without the swap tier.
  s.stream = std::make_unique<Stream>(s.plan, *s.cache);
  s.stream->set_cost_model(cost_model_);
  s.stream->restore_state(swap_.swap_in(s.id).unpack());
  resident_.emplace(s.id, &s);
  lifecycle_.on_resident(s.plan->layout->footprint_words());
  --lifecycle_.swapped_sessions;
  ++lifecycle_.swap_ins;
}

void SessionHost::swap_out(TenantId id) {
  CCS_EXPECTS(swap_enabled_, "swap_out requires " + options_name_ + "::swap");
  Session& s = session(id);
  if (s.stream == nullptr) {
    throw Error("tenant " + std::to_string(id) + " is already swapped out");
  }
  if (!s.idle) {
    throw Error("tenant " + std::to_string(id) +
                " is not idle; only idle sessions can be swapped out");
  }
  evict(s);
}

std::int64_t SessionHost::swap_out_idle() {
  CCS_EXPECTS(swap_enabled_, "swap_out_idle requires " + options_name_ + "::swap");
  std::int64_t evicted = 0;
  for (auto it = resident_.begin(); it != resident_.end();) {
    Session& s = *(it++)->second;  // advance first: evict() erases the entry
    if (s.idle) {
      evict(s);
      ++evicted;
    }
  }
  return evicted;
}

void SessionHost::audit_invariants() const {
  std::size_t resident = 0;
  std::int64_t resident_words = 0;
  std::set<std::int64_t> bands;
  for (const auto& [id, s] : sessions_) {
    CCS_CHECK(s.id == id, "tenant id disagrees with its key");
    CCS_CHECK(id < next_id_, "tenant id was never handed out");
    CCS_CHECK(s.plan != nullptr && s.cache != nullptr, "open tenant without a plan or cache");
    const auto r = resident_.find(id);
    if (s.stream != nullptr) {
      ++resident;
      resident_words += s.plan->layout->footprint_words();
      CCS_CHECK(r != resident_.end() && r->second == &s,
                "resident tenant missing from the resident set");
      CCS_CHECK(swap_.resident(id), "resident tenant unknown to the swap tier's LRU");
    } else {
      CCS_CHECK(r == resident_.end(), "swapped tenant in the resident set");
      CCS_CHECK(s.idle, "swapped tenant is not idle");
      CCS_CHECK(swap_.swapped(id), "swapped tenant has no swap image");
    }
    CCS_CHECK(names_.count(s.name) == 1, "open tenant missing from the name index");
    CCS_CHECK(s.band >= 0 && s.band < next_band_, "tenant band was never handed out");
    CCS_CHECK(free_bands_.count(s.band) == 0, "open tenant's band is on the free list");
    CCS_CHECK(bands.insert(s.band).second, "two open tenants share a band");
  }
  CCS_CHECK(resident_.size() == resident, "resident set holds a closed or swapped tenant");
  CCS_CHECK(names_.size() == sessions_.size(), "name index holds a closed tenant");
  CCS_CHECK(free_bands_.empty() || *free_bands_.rbegin() < next_band_,
            "free list holds a band never handed out");
  CCS_CHECK(static_cast<std::int64_t>(free_bands_.size() + sessions_.size()) == next_band_,
            "a band is neither open nor free");
  CCS_CHECK(swap_.resident_count() == static_cast<std::int64_t>(resident) &&
                swap_.swapped_count() == static_cast<std::int64_t>(sessions_.size() - resident),
            "swap tier tracks a closed tenant");
  CCS_CHECK(lifecycle_.live_sessions == static_cast<std::int64_t>(resident) &&
                lifecycle_.swapped_sessions ==
                    static_cast<std::int64_t>(sessions_.size() - resident) &&
                lifecycle_.resident_words == resident_words &&
                lifecycle_.sessions_opened - lifecycle_.sessions_closed ==
                    static_cast<std::int64_t>(sessions_.size()),
            "lifecycle counters disagree with the session table");
}

}  // namespace ccs::core
