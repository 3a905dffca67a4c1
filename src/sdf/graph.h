// Synchronous dataflow (SDF) streaming graph model.
//
// A streaming computation is a directed acyclic multigraph G = (V, E):
// vertices are *modules* with a fixed state size s(v) (the words of code +
// data that must reside in cache for the module to fire), and edges are
// FIFO *channels*. An edge (u, v) carries two integral rates:
//   out_rate -- tokens produced onto the channel each time u fires,
//   in_rate  -- tokens consumed from the channel each time v fires.
// All tokens are unit size (one word), per the paper's w.l.o.g. assumption.
//
// SdfGraph is a value type: cheap to copy for small graphs, movable, and
// structurally immutable apart from the add_node/add_edge builder calls.
// Derived quantities (gains, repetition vectors, buffer bounds) live in
// sibling headers and take the graph by const reference.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/contract.h"

namespace ccs::sdf {

/// Dense module index. Valid ids are 0 .. node_count()-1.
using NodeId = std::int32_t;
/// Dense channel index. Valid ids are 0 .. edge_count()-1.
using EdgeId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr EdgeId kInvalidEdge = -1;

/// A computation module.
struct Node {
  std::string name;        ///< Unique human-readable identifier.
  std::int64_t state = 0;  ///< State size in words; must fit in cache to fire.
};

/// A FIFO channel between two modules.
struct Edge {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::int64_t out_rate = 1;  ///< Tokens produced per firing of src.
  std::int64_t in_rate = 1;   ///< Tokens consumed per firing of dst.
};

/// Directed streaming multigraph (parallel edges between the same pair of
/// modules are allowed, as in the paper's multigraph model).
class SdfGraph {
 public:
  SdfGraph() = default;

  /// Adds a module. `state` is in words and must be non-negative. Names must
  /// be unique; duplicates throw GraphError.
  NodeId add_node(std::string name, std::int64_t state);

  /// Adds a channel src -> dst. Rates must be positive. Self-loops throw
  /// GraphError (the paper's graphs are acyclic).
  EdgeId add_edge(NodeId src, NodeId dst, std::int64_t out_rate, std::int64_t in_rate);

  std::int32_t node_count() const noexcept { return static_cast<std::int32_t>(nodes_.size()); }
  std::int32_t edge_count() const noexcept { return static_cast<std::int32_t>(edges_.size()); }

  const Node& node(NodeId v) const {
    CCS_EXPECTS(v >= 0 && v < node_count(), "node id out of range");
    return nodes_[static_cast<std::size_t>(v)];
  }
  const Edge& edge(EdgeId e) const {
    CCS_EXPECTS(e >= 0 && e < edge_count(), "edge id out of range");
    return edges_[static_cast<std::size_t>(e)];
  }

  /// Outgoing / incoming channel ids of a module, in insertion order.
  const std::vector<EdgeId>& out_edges(NodeId v) const {
    CCS_EXPECTS(v >= 0 && v < node_count(), "node id out of range");
    return out_[static_cast<std::size_t>(v)];
  }
  const std::vector<EdgeId>& in_edges(NodeId v) const {
    CCS_EXPECTS(v >= 0 && v < node_count(), "node id out of range");
    return in_[static_cast<std::size_t>(v)];
  }

  /// Id lookup by unique name; kInvalidNode when absent.
  NodeId find_node(const std::string& name) const noexcept;

  /// Modules with no incoming / no outgoing channels.
  std::vector<NodeId> sources() const;
  std::vector<NodeId> sinks() const;

  /// Sum of all module state sizes, in words.
  std::int64_t total_state() const noexcept;

  /// Largest single module state, in words (0 for an empty graph).
  std::int64_t max_state() const noexcept;

  /// True if the graph is a single directed chain (every module has at most
  /// one input and one output channel, one source, one sink, connected).
  bool is_pipeline() const;

  /// True if every edge has in_rate == out_rate == 1.
  bool is_homogeneous() const noexcept;

 private:
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> out_;
  std::vector<std::vector<EdgeId>> in_;
};

/// One-line structural summary ("n=12 e=14 state=8192 pipeline").
std::ostream& operator<<(std::ostream& os, const SdfGraph& g);

}  // namespace ccs::sdf
