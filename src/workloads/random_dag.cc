#include "workloads/random_dag.h"

#include <string>
#include <vector>

#include "util/contract.h"
#include "util/rational.h"

namespace ccs::workloads {

using sdf::NodeId;
using sdf::SdfGraph;

SdfGraph layered_homogeneous_dag(const LayeredSpec& spec, Rng& rng) {
  CCS_EXPECTS(spec.layers >= 1 && spec.width >= 1, "need at least one interior module");
  CCS_EXPECTS(spec.state_lo >= 0 && spec.state_lo <= spec.state_hi, "invalid state range");
  SdfGraph g;
  const NodeId source = g.add_node("src", rng.uniform(spec.state_lo, spec.state_hi));

  // layer_nodes[l] for l in [0, layers+1]: 0 is the source, layers+1 the sink.
  std::vector<std::vector<NodeId>> layer_nodes(static_cast<std::size_t>(spec.layers) + 2);
  layer_nodes[0].push_back(source);
  for (std::int32_t l = 1; l <= spec.layers; ++l) {
    for (std::int32_t w = 0; w < spec.width; ++w) {
      layer_nodes[static_cast<std::size_t>(l)].push_back(
          g.add_node("L" + std::to_string(l) + "_" + std::to_string(w),
                     rng.uniform(spec.state_lo, spec.state_hi)));
    }
  }
  const NodeId sink = g.add_node("sink", rng.uniform(spec.state_lo, spec.state_hi));
  layer_nodes[static_cast<std::size_t>(spec.layers) + 1].push_back(sink);

  // Covering edges: every interior module gets one predecessor in the prior
  // layer; every module of the prior layer missing a successor gets one.
  for (std::size_t l = 1; l < layer_nodes.size(); ++l) {
    const auto& prev = layer_nodes[l - 1];
    const auto& cur = layer_nodes[l];
    for (const NodeId v : cur) g.add_edge(rng.pick(prev), v, 1, 1);
    for (const NodeId u : prev) {
      if (g.out_edges(u).empty()) g.add_edge(u, rng.pick(cur), 1, 1);
    }
    // Extra random edges between consecutive layers (skip exact duplicates).
    for (const NodeId u : prev) {
      for (const NodeId v : cur) {
        if (!rng.bernoulli(spec.edge_prob)) continue;
        bool duplicate = false;
        for (const sdf::EdgeId e : g.out_edges(u)) {
          if (g.edge(e).dst == v) {
            duplicate = true;
            break;
          }
        }
        if (!duplicate) g.add_edge(u, v, 1, 1);
      }
    }
  }
  return g;
}

namespace {

/// A recursively built sub-dag with unique entry/exit and known total gain
/// (firings of exit per firing of entry).
struct Fragment {
  NodeId entry;
  NodeId exit;
  Rational gain;
};

class SpBuilder {
 public:
  SpBuilder(SdfGraph& g, const SeriesParallelSpec& spec, Rng& rng)
      : g_(g), spec_(spec), rng_(rng) {}

  Fragment build(std::int32_t budget, std::int32_t depth) {
    if (budget <= 1 || depth > 4) {
      const NodeId v = fresh_node();
      return Fragment{v, v, Rational(1)};
    }
    if (budget >= 4 && rng_.bernoulli(0.4)) return parallel(budget, depth);
    return series(budget, depth);
  }

 private:
  NodeId fresh_node() {
    return g_.add_node("sp" + std::to_string(counter_++),
                       rng_.uniform(spec_.state_lo, spec_.state_hi));
  }

  Fragment series(std::int32_t budget, std::int32_t depth) {
    const std::int32_t left_budget = std::max(1, budget / 2);
    Fragment left = build(left_budget, depth + 1);
    Fragment right = build(budget - left_budget, depth + 1);
    const std::int64_t out = rng_.uniform(1, spec_.max_rate);
    const std::int64_t in = rng_.uniform(1, spec_.max_rate);
    g_.add_edge(left.exit, right.entry, out, in);
    return Fragment{left.entry, right.exit,
                    left.gain * Rational(out, in) * right.gain};
  }

  Fragment parallel(std::int32_t budget, std::int32_t depth) {
    const auto branches =
        static_cast<std::int32_t>(rng_.uniform(2, spec_.max_branches));
    const NodeId split = fresh_node();
    const NodeId join = fresh_node();
    const std::int32_t per_branch = std::max(1, (budget - 2) / branches);
    for (std::int32_t b = 0; b < branches; ++b) {
      Fragment frag = build(per_branch, depth + 1);
      g_.add_edge(split, frag.entry, 1, 1);
      // Normalize the branch to unit gain so the join can consume one token
      // per input channel per firing: append a rate-converter module whose
      // edge rates cancel the branch's accumulated gain.
      NodeId tail = frag.exit;
      if (frag.gain != Rational(1)) {
        const NodeId norm = fresh_node();
        g_.add_edge(tail, norm, frag.gain.den(), frag.gain.num());
        tail = norm;
      }
      g_.add_edge(tail, join, 1, 1);
    }
    return Fragment{split, join, Rational(1)};
  }

  SdfGraph& g_;
  const SeriesParallelSpec& spec_;
  Rng& rng_;
  std::int32_t counter_ = 0;
};

}  // namespace

SdfGraph series_parallel_dag(const SeriesParallelSpec& spec, Rng& rng) {
  CCS_EXPECTS(spec.target_nodes >= 1, "need a positive node budget");
  CCS_EXPECTS(spec.max_branches >= 2, "parallel composition needs >= 2 branches");
  CCS_EXPECTS(spec.max_rate >= 1, "invalid max rate");
  CCS_EXPECTS(spec.state_lo >= 0 && spec.state_lo <= spec.state_hi, "invalid state range");
  SdfGraph g;
  SpBuilder builder(g, spec, rng);
  (void)builder.build(spec.target_nodes, 0);
  return g;
}

}  // namespace ccs::workloads
