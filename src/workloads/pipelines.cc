#include "workloads/pipelines.h"

#include "util/contract.h"

namespace ccs::workloads {

using sdf::NodeId;
using sdf::SdfGraph;

namespace {

/// Chain node names: m0 (source) .. m<n-1> (sink).
std::string chain_name(std::int32_t i) { return "m" + std::to_string(i); }

}  // namespace

SdfGraph uniform_pipeline(std::int32_t n, std::int64_t state, std::int64_t rate) {
  CCS_EXPECTS(n >= 2, "pipeline needs at least two modules");
  CCS_EXPECTS(state >= 0 && rate >= 1, "invalid state or rate");
  SdfGraph g;
  for (std::int32_t i = 0; i < n; ++i) g.add_node(chain_name(i), state);
  for (std::int32_t i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1, rate, rate);
  return g;
}

SdfGraph random_pipeline(std::int32_t n, std::int64_t state_lo, std::int64_t state_hi,
                         std::int64_t max_rate, Rng& rng) {
  CCS_EXPECTS(n >= 2, "pipeline needs at least two modules");
  CCS_EXPECTS(0 <= state_lo && state_lo <= state_hi, "invalid state range");
  CCS_EXPECTS(max_rate >= 1, "invalid max rate");
  SdfGraph g;
  for (std::int32_t i = 0; i < n; ++i) {
    g.add_node(chain_name(i), rng.uniform(state_lo, state_hi));
  }
  for (std::int32_t i = 0; i + 1 < n; ++i) {
    g.add_edge(i, i + 1, rng.uniform(1, max_rate), rng.uniform(1, max_rate));
  }
  return g;
}

SdfGraph hourglass_pipeline(std::int32_t n, std::int64_t state, std::int64_t factor) {
  CCS_EXPECTS(n >= 2, "pipeline needs at least two modules");
  CCS_EXPECTS(factor >= 2, "hourglass needs a decimation factor of at least 2");
  SdfGraph g;
  for (std::int32_t i = 0; i < n; ++i) g.add_node(chain_name(i), state);
  const std::int32_t waist = (n - 1) / 2;
  for (std::int32_t i = 0; i + 1 < n; ++i) {
    if (i < waist) g.add_edge(i, i + 1, 1, factor);        // decimate: consume factor
    else if (i > waist) g.add_edge(i, i + 1, factor, 1);   // interpolate: produce factor
    else g.add_edge(i, i + 1, 1, 1);                       // the waist
  }
  return g;
}

SdfGraph heavy_tail_pipeline(std::int32_t n, std::int64_t small_state,
                             std::int64_t large_state, std::int32_t every_k) {
  CCS_EXPECTS(n >= 2, "pipeline needs at least two modules");
  CCS_EXPECTS(every_k >= 1, "every_k must be positive");
  CCS_EXPECTS(small_state >= 0 && large_state >= small_state, "invalid states");
  SdfGraph g;
  for (std::int32_t i = 0; i < n; ++i) {
    g.add_node(chain_name(i), (i % every_k == every_k - 1) ? large_state : small_state);
  }
  for (std::int32_t i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1, 1, 1);
  return g;
}

}  // namespace ccs::workloads
