#include "schedule/token_sim.h"

#include <algorithm>

#include "util/contract.h"
#include "util/error.h"

namespace ccs::schedule {

TokenSim::TokenSim(const sdf::SdfGraph& g, std::span<const std::int64_t> caps)
    : graph_(&g), caps_(caps.begin(), caps.end()) {
  CCS_EXPECTS(caps.size() == static_cast<std::size_t>(g.edge_count()),
              "one capacity per edge required");
  for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
    const sdf::Edge& edge = g.edge(e);
    if (caps_[static_cast<std::size_t>(e)] < std::max(edge.out_rate, edge.in_rate)) {
      throw ScheduleError("capacity of edge " + std::to_string(e) +
                          " cannot hold a single burst");
    }
  }
  tokens_.assign(static_cast<std::size_t>(g.edge_count()), 0);
  peak_.assign(static_cast<std::size_t>(g.edge_count()), 0);
  fired_.assign(static_cast<std::size_t>(g.node_count()), 0);
}

bool TokenSim::can_fire(sdf::NodeId v) const { return max_batch(v, 1) >= 1; }

std::int64_t TokenSim::max_batch(sdf::NodeId v, std::int64_t limit) const {
  CCS_EXPECTS(v >= 0 && v < graph_->node_count(), "node id out of range");
  std::int64_t batch = limit;
  for (const sdf::EdgeId e : graph_->in_edges(v)) {
    batch = std::min(batch, tokens(e) / graph_->edge(e).in_rate);
  }
  for (const sdf::EdgeId e : graph_->out_edges(v)) {
    batch = std::min(batch, space(e) / graph_->edge(e).out_rate);
  }
  return std::max<std::int64_t>(batch, 0);
}

void TokenSim::fire(sdf::NodeId v, std::int64_t count) {
  CCS_EXPECTS(count >= 0, "negative firing count");
  if (max_batch(v, count) < count) {
    throw ScheduleError("module '" + graph_->node(v).name + "' cannot fire " +
                        std::to_string(count) + " time(s)");
  }
  for (const sdf::EdgeId e : graph_->in_edges(v)) {
    tokens_[static_cast<std::size_t>(e)] -= count * graph_->edge(e).in_rate;
  }
  for (const sdf::EdgeId e : graph_->out_edges(v)) {
    auto& t = tokens_[static_cast<std::size_t>(e)];
    t += count * graph_->edge(e).out_rate;
    peak_[static_cast<std::size_t>(e)] = std::max(peak_[static_cast<std::size_t>(e)], t);
  }
  fired_[static_cast<std::size_t>(v)] += count;
}

bool TokenSim::drained() const {
  return std::all_of(tokens_.begin(), tokens_.end(),
                     [](std::int64_t t) { return t == 0; });
}

}  // namespace ccs::schedule
