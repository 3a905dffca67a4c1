#include "partition/dag_anneal.h"

#include <cmath>

#include "sdf/gain.h"
#include "util/contract.h"

namespace ccs::partition {

namespace {

/// Bandwidth delta of moving v to `target` (same form as dag_refine's).
double move_delta(const sdf::SdfGraph& g, const std::vector<double>& edge_gain,
                  const Partition& p, sdf::NodeId v, std::int32_t target) {
  double delta = 0;
  const std::int32_t from = p.comp(v);
  auto edge_term = [&](sdf::EdgeId e, sdf::NodeId other) {
    const std::int32_t oc = p.comp(other);
    const bool was_cross = oc != from;
    const bool now_cross = oc != target;
    if (was_cross && !now_cross) delta -= edge_gain[static_cast<std::size_t>(e)];
    if (!was_cross && now_cross) delta += edge_gain[static_cast<std::size_t>(e)];
  };
  for (const sdf::EdgeId e : g.in_edges(v)) edge_term(e, g.edge(e).src);
  for (const sdf::EdgeId e : g.out_edges(v)) edge_term(e, g.edge(e).dst);
  return delta;
}

Partition compact(const Partition& p) {
  std::vector<std::int32_t> remap(static_cast<std::size_t>(p.num_components), -1);
  std::int32_t next = 0;
  for (const std::int32_t c : p.assignment) {
    auto& slot = remap[static_cast<std::size_t>(c)];
    if (slot == -1) slot = next++;
  }
  Partition out;
  out.num_components = next;
  out.assignment.reserve(p.assignment.size());
  for (const std::int32_t c : p.assignment) {
    out.assignment.push_back(remap[static_cast<std::size_t>(c)]);
  }
  return out;
}

}  // namespace

Partition anneal_partition(const sdf::SdfGraph& g, const Partition& start,
                           const AnnealOptions& options) {
  CCS_EXPECTS(options.state_bound > 0, "state bound must be positive");
  CCS_EXPECTS(is_well_ordered(g, start), "annealing requires a well-ordered start");
  CCS_EXPECTS(is_bounded(g, start, options.state_bound), "start exceeds the bound");

  const sdf::GainMap gains(g);
  std::vector<double> edge_gain(static_cast<std::size_t>(g.edge_count()));
  double mean_gain = 0;
  for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
    edge_gain[static_cast<std::size_t>(e)] = gains.edge_gain(e).to_double();
    mean_gain += edge_gain[static_cast<std::size_t>(e)];
  }
  mean_gain = g.edge_count() > 0 ? mean_gain / static_cast<double>(g.edge_count()) : 1.0;

  Rng rng(options.seed);
  Partition cur = start;
  auto states = component_states(g, cur);
  double cur_bw = bandwidth(g, gains, cur).to_double();
  Partition best = cur;
  double best_bw = cur_bw;
  double temp = options.initial_temp * mean_gain;

  for (std::int32_t it = 0; it < options.iterations; ++it, temp *= options.cooling) {
    const auto v = static_cast<sdf::NodeId>(rng.uniform(0, g.node_count() - 1));
    const std::int32_t from = cur.comp(v);
    // Candidate targets: neighbor components, or a fresh singleton (which
    // only makes sense if v is not already alone).
    std::vector<std::int32_t> targets;
    for (const sdf::EdgeId e : g.in_edges(v)) targets.push_back(cur.comp(g.edge(e).src));
    for (const sdf::EdgeId e : g.out_edges(v)) targets.push_back(cur.comp(g.edge(e).dst));
    if (states[static_cast<std::size_t>(from)] > g.node(v).state) {
      targets.push_back(cur.num_components);
    }
    if (targets.empty()) continue;
    const std::int32_t target = rng.pick(targets);
    if (target == from) continue;
    const bool fresh = target == cur.num_components;
    if (!fresh && states[static_cast<std::size_t>(target)] + g.node(v).state >
                      options.state_bound) {
      continue;
    }
    const double delta = move_delta(g, edge_gain, cur, v, target);
    if (delta > 0 && (temp <= 0 || rng.uniform01() >= std::exp(-delta / temp))) {
      continue;  // uphill move rejected
    }
    Partition trial = cur;
    trial.assignment[static_cast<std::size_t>(v)] = target;
    if (fresh) ++trial.num_components;
    if (!is_well_ordered(g, trial)) continue;

    states[static_cast<std::size_t>(from)] -= g.node(v).state;
    if (fresh) states.push_back(g.node(v).state);
    else states[static_cast<std::size_t>(target)] += g.node(v).state;
    cur = std::move(trial);
    cur_bw += delta;
    if (cur_bw < best_bw - 1e-12) {
      best = cur;
      best_bw = cur_bw;
    }
  }

  best = compact(best);
  CCS_ENSURES(is_well_ordered(g, best), "annealing must preserve well-ordering");
  CCS_ENSURES(is_bounded(g, best, options.state_bound), "annealing must preserve the bound");
  return best;
}

}  // namespace ccs::partition
