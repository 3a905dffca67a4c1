#include "placement/footprint.h"

#include <algorithm>

#include "util/contract.h"
#include "util/error.h"

namespace ccs::placement {

FootprintEstimator::FootprintEstimator(FootprintConfig config) : config_(config) {
  if (config_.budget_words < 0) throw Error("footprint budget must be non-negative");
  if (config_.min_window_accesses < 1) {
    throw Error("footprint estimator needs min_window_accesses >= 1");
  }
  if (config_.cold_windows < 1) throw Error("footprint estimator needs cold_windows >= 1");
  if (config_.express_permille < 0) {
    throw Error("footprint thresholds must be non-negative");
  }
  if (config_.thrash_miss_permille < 0 || config_.thrash_miss_permille > 1000) {
    throw Error("thrash threshold is a miss rate per mille: it must lie in [0, 1000]");
  }
}

void FootprintEstimator::add_session(std::int32_t session, std::int64_t layout_words,
                                     std::int64_t state_words) {
  CCS_EXPECTS(layout_words >= 0 && state_words >= 0,
              "session footprint seeds must be non-negative");
  CCS_EXPECTS(state_words <= layout_words,
              "module state cannot exceed the layout span it is part of");
  Session s;
  s.layout = layout_words;
  s.state = state_words;
  s.live = layout_words;  // the gain-analysis seed: assume the whole span is live
  const bool inserted = sessions_.emplace(session, s).second;
  CCS_EXPECTS(inserted, "session is already registered");
}

void FootprintEstimator::remove_session(std::int32_t session) {
  const bool erased = sessions_.erase(session) == 1;
  CCS_EXPECTS(erased, "unknown session");
}

const FootprintEstimator::Session& FootprintEstimator::session(std::int32_t s) const {
  const auto it = sessions_.find(s);
  CCS_EXPECTS(it != sessions_.end(), "unknown session");
  return it->second;
}

void FootprintEstimator::observe(std::int32_t s, const FootprintObservation& o) {
  const auto it = sessions_.find(s);
  CCS_EXPECTS(it != sessions_.end(), "unknown session");
  Session& session = it->second;
  CCS_EXPECTS(o.accesses >= session.last_accesses && o.misses >= session.last_misses,
              "footprint observations must carry monotone lifetime counters");
  const std::int64_t window_accesses = o.accesses - session.last_accesses;
  const std::int64_t window_misses = o.misses - session.last_misses;
  session.last_accesses = o.accesses;
  session.last_misses = o.misses;

  if (window_accesses < config_.min_window_accesses) {
    if (++session.quiet >= config_.cold_windows) session.active = false;
    return;
  }
  session.quiet = 0;
  session.active = true;
  session.miss_permille = window_misses * 1000 / window_accesses;
  if (session.miss_permille >= config_.thrash_miss_permille) {
    // Cycling the whole span through the cache: nothing stays resident long
    // enough for the residency probe to mean anything.
    session.live = session.layout;
  } else {
    // Warm enough to trust residency, floored at the state share (a session
    // that just migrated holds nothing yet but will reload at least state).
    session.live = std::clamp(o.resident_words, std::min(session.state, session.layout),
                              session.layout);
  }
}

std::int64_t FootprintEstimator::footprint_words(std::int32_t s) const {
  return session(s).live;
}

bool FootprintEstimator::express(std::int32_t s) const {
  if (config_.budget_words <= 0) return false;
  return session(s).live * 1000 > config_.express_permille * config_.budget_words;
}

bool FootprintEstimator::hot(std::int32_t s) const {
  return session(s).active && !express(s);
}

std::int64_t FootprintEstimator::window_miss_permille(std::int32_t s) const {
  return session(s).miss_permille;
}

}  // namespace ccs::placement
