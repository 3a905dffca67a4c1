#include "schedule/online.h"

#include <algorithm>
#include <utility>

#include "sdf/min_buffer.h"
#include "sdf/repetition.h"
#include "sdf/topology.h"
#include "util/error.h"
#include "util/int_math.h"

namespace ccs::schedule {

namespace {

/// Token-count scratchpad for planning: seeded from a view, mutated while a
/// policy simulates a burst, then discarded. Mirrors TokenSim::max_batch /
/// fire arithmetic so planned bursts are exactly what a TokenSim (or the
/// engine) will accept.
class ScratchSim {
 public:
  ScratchSim(const sdf::SdfGraph& g, const std::vector<std::int64_t>& caps)
      : graph_(&g), caps_(&caps) {
    tokens_.resize(static_cast<std::size_t>(g.edge_count()));
  }

  void seed(const EngineView& view) {
    for (sdf::EdgeId e = 0; e < graph_->edge_count(); ++e) {
      tokens_[static_cast<std::size_t>(e)] = view.tokens(e);
    }
  }

  std::int64_t tokens(sdf::EdgeId e) const { return tokens_[static_cast<std::size_t>(e)]; }

  std::int64_t max_batch(sdf::NodeId v, std::int64_t limit) const {
    std::int64_t batch = limit;
    for (const sdf::EdgeId e : graph_->in_edges(v)) {
      batch = std::min(batch, tokens(e) / graph_->edge(e).in_rate);
    }
    for (const sdf::EdgeId e : graph_->out_edges(v)) {
      const std::int64_t space = (*caps_)[static_cast<std::size_t>(e)] - tokens(e);
      batch = std::min(batch, space / graph_->edge(e).out_rate);
    }
    return std::max<std::int64_t>(batch, 0);
  }

  void fire(sdf::NodeId v, std::int64_t count) {
    for (const sdf::EdgeId e : graph_->in_edges(v)) {
      tokens_[static_cast<std::size_t>(e)] -= count * graph_->edge(e).in_rate;
    }
    for (const sdf::EdgeId e : graph_->out_edges(v)) {
      tokens_[static_cast<std::size_t>(e)] += count * graph_->edge(e).out_rate;
    }
  }

 private:
  const sdf::SdfGraph* graph_;
  const std::vector<std::int64_t>* caps_;
  std::vector<std::int64_t> tokens_;
};

/// Section 3's pipeline rule. Cross buffers hold Theta(M); the continuity
/// scan designates the first at-most-half-full cross edge's upstream
/// component (default: the sink's); a designated component runs until its
/// input cross edge empties or its output cross edge fills.
class PipelineHalfFullPolicy final : public OnlinePolicy {
 public:
  PipelineHalfFullPolicy(const sdf::SdfGraph& g, const partition::Partition& p,
                         std::int64_t m)
      : OnlinePolicy("pipeline-half-full", g), reps_(g), scratch_(g, caps_) {
    CCS_EXPECTS(m > 0, "online policy requires a positive cache size");
    chain_ = sdf::pipeline_order(g);  // throws if not a pipeline
    if (!partition::is_well_ordered(g, p)) {
      throw Error("dynamic scheduling requires a well-ordered partition");
    }
    const partition::Partition topo_p = partition::renumber_topological(g, p);
    k_ = topo_p.num_components;
    source_ = chain_.front();
    sink_ = chain_.back();

    // Segments must be contiguous runs of the chain (true for any
    // well-ordered pipeline partition); record each component's member order
    // and its incoming/outgoing cross edge.
    members_.resize(static_cast<std::size_t>(k_));
    for (const sdf::NodeId v : chain_) {
      members_[static_cast<std::size_t>(topo_p.comp(v))].push_back(v);
    }
    for (std::int64_t i = 0; i + 1 < k_; ++i) {
      const sdf::NodeId last = members_[static_cast<std::size_t>(i)].back();
      CCS_CHECK(!g.out_edges(last).empty(), "non-final segment must continue the chain");
      const sdf::EdgeId e = g.out_edges(last).front();
      CCS_CHECK(topo_p.comp(g.edge(e).dst) == i + 1,
                "pipeline partition must be contiguous segments");
      cross_.push_back(e);
    }

    caps_ = sdf::feasible_buffers(g);
    for (const sdf::EdgeId e : cross_) {
      const sdf::Edge& edge = g.edge(e);
      caps_[static_cast<std::size_t>(e)] =
          std::max(m, sdf::edge_min_buffer(edge.out_rate, edge.in_rate) * 2);
    }
  }

  std::int64_t next_component(const EngineView& view) const override {
    // The continuity rule: scan cross edges in order; the first at-most-
    // half-full edge designates its upstream component; if none qualifies,
    // the sink's component runs (its output is always "empty").
    for (std::size_t i = 0; i < cross_.size(); ++i) {
      const sdf::EdgeId e = cross_[i];
      if (view.tokens(e) * 2 <= view.capacity(e)) return static_cast<std::int64_t>(i);
    }
    return k_ - 1;
  }

  StepPlan next_step(const EngineView& view) const override {
    StepPlan plan;
    plan.component = next_component(view);
    plan_component(plan.component, view, plan.program);
    if (!plan.idle()) return plan;
    // The idealized rule assumes an infinite input stream; when arrivals run
    // dry the designated component may be stuck -- push the in-flight tokens
    // through whichever component can still move.
    for (std::int64_t c = 0; c < k_; ++c) {
      plan_component(c, view, plan.program);
      if (!plan.idle()) {
        plan.component = c;
        return plan;
      }
    }
    plan.component = kNoComponent;
    return plan;
  }

  FiringProgram plan_drain(const EngineView& view) const override {
    // Align the source on a whole number of steady-state iterations, then
    // greedy-sweep the chain until nothing moves. With enough remaining
    // input credit (a batch driver always has it) this empties every
    // channel; a starved stream drains as far as its arrivals allow.
    const std::int64_t reps_src = reps_.count(source_);
    const std::int64_t fired_src = view.fired(source_);
    const std::int64_t target = ceil_div(fired_src, reps_src) * reps_src;
    std::int64_t allowance = std::min(target - fired_src, view.input_credit());

    FiringProgram out;
    scratch_.seed(view);
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (const sdf::NodeId v : chain_) {
        std::int64_t limit = std::numeric_limits<std::int64_t>::max();
        if (v == source_) {
          limit = allowance;
          if (limit <= 0) continue;
        }
        const std::int64_t batch = scratch_.max_batch(v, limit);
        if (batch > 0) {
          scratch_.fire(v, batch);
          if (v == source_) allowance -= batch;
          out.append(v, batch);
          progressed = true;
        }
      }
    }
    return out;
  }

  std::int64_t batch_credit(std::int64_t min_outputs) const override {
    // Enough steady-state iterations for min_outputs sink firings, plus one
    // so the designated component never starves before the target is met.
    return checked_mul(ceil_div(min_outputs, reps_.count(sink_)) + 1,
                       reps_.count(source_));
  }

 private:
  /// Simulates one run-to-blocking execution of component c from `view`
  /// (the source limited to the remaining input credit), appending its
  /// batches as runs. Leaves `out` untouched when c cannot move at all.
  void plan_component(std::int64_t c, const EngineView& view, FiringProgram& out) const {
    scratch_.seed(view);
    std::int64_t credit = view.input_credit();
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (const sdf::NodeId v : members_[static_cast<std::size_t>(c)]) {
        std::int64_t limit = std::numeric_limits<std::int32_t>::max();
        if (v == source_) {
          limit = credit;
          if (limit <= 0) continue;
        }
        const std::int64_t batch = scratch_.max_batch(v, limit);
        if (batch > 0) {
          scratch_.fire(v, batch);
          if (v == source_ && credit != kUnlimitedCredit) credit -= batch;
          out.append(v, batch);
          progressed = true;
        }
      }
    }
  }

  std::vector<sdf::NodeId> chain_;
  std::vector<sdf::EdgeId> cross_;  ///< cross_[i] = edge from comp i to i+1.
  sdf::RepetitionVector reps_;
  mutable ScratchSim scratch_;  ///< Planning scratch, reseeded on every call.
};

/// The asynchronous homogeneous-dag rule: incoming cross buffers full (M
/// tokens), outgoing empty => run M local iterations.
class HomogeneousMBatchPolicy final : public OnlinePolicy {
 public:
  HomogeneousMBatchPolicy(const sdf::SdfGraph& g, const partition::Partition& p,
                          std::int64_t m)
      : OnlinePolicy("homogeneous-m-batch", g), m_(m), scratch_(g, caps_) {
    CCS_EXPECTS(m > 0, "online policy requires a positive cache size");
    if (!g.is_homogeneous()) {
      throw Error("dynamic homogeneous scheduling requires unit rates everywhere");
    }
    if (!partition::is_well_ordered(g, p)) {
      throw Error("dynamic scheduling requires a well-ordered partition");
    }
    const partition::Partition topo_p = partition::renumber_topological(g, p);
    const auto global_topo = sdf::topological_sort(g);
    k_ = topo_p.num_components;
    source_ = g.sources().front();
    sink_ = g.sinks().front();

    members_.resize(static_cast<std::size_t>(k_));
    for (const sdf::NodeId v : global_topo) {
      members_[static_cast<std::size_t>(topo_p.comp(v))].push_back(v);
    }
    comp_ = topo_p.assignment;

    caps_.assign(static_cast<std::size_t>(g.edge_count()), 1);
    for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
      if (comp_of(g.edge(e).src) != comp_of(g.edge(e).dst)) {
        caps_[static_cast<std::size_t>(e)] = m;
      }
    }
  }

  std::int64_t next_component(const EngineView& view) const override {
    for (std::int64_t c = 0; c < k_; ++c) {
      if (schedulable(c, view)) return c;
    }
    return kNoComponent;
  }

  StepPlan next_step(const EngineView& view) const override {
    StepPlan plan;
    plan.component = next_component(view);
    if (plan.component == kNoComponent) return plan;
    // Execute = m local iterations, each one topological pass over members
    // (schedulability guarantees the whole burst is feasible): one period
    // of the members, repeated m times.
    const auto& mem = members_[static_cast<std::size_t>(plan.component)];
    plan.program.runs.reserve(mem.size());
    for (const sdf::NodeId v : mem) plan.program.append(v);
    plan.program.repeat = m_;
    return plan;
  }

  FiringProgram plan_drain(const EngineView& view) const override {
    // Drain component-major (run each component to exhaustion before moving
    // on) so every component's state is loaded O(1) times; the source admits
    // no new inputs while draining.
    FiringProgram out;
    scratch_.seed(view);
    bool draining = true;
    while (draining) {
      draining = false;
      for (std::int64_t c = 0; c < k_; ++c) {
        bool progressed = true;
        while (progressed) {
          progressed = false;
          for (const sdf::NodeId v : members_[static_cast<std::size_t>(c)]) {
            if (v == source_) continue;
            const std::int64_t batch =
                scratch_.max_batch(v, std::numeric_limits<std::int64_t>::max());
            if (batch > 0) {
              scratch_.fire(v, batch);
              out.append(v, batch);
              progressed = true;
              draining = true;
            }
          }
        }
      }
    }
    return out;
  }

  std::int64_t batch_credit(std::int64_t) const override {
    // The M-batch rule self-limits: the source component is schedulable only
    // while its outgoing cross buffers are empty, so no cap is needed.
    return kUnlimitedCredit;
  }

 private:
  std::int32_t comp_of(sdf::NodeId v) const { return comp_[static_cast<std::size_t>(v)]; }

  bool schedulable(std::int64_t c, const EngineView& view) const {
    for (const sdf::NodeId v : members_[static_cast<std::size_t>(c)]) {
      for (const sdf::EdgeId e : graph_->in_edges(v)) {
        if (comp_of(graph_->edge(e).src) != c && view.tokens(e) < m_) return false;
      }
      for (const sdf::EdgeId e : graph_->out_edges(v)) {
        if (comp_of(graph_->edge(e).dst) != c && view.tokens(e) != 0) return false;
      }
    }
    // One execution fires the source m_ times; a metered driver must have
    // the arrivals to cover it.
    if (comp_of(source_) == c && view.input_credit() < m_) return false;
    return true;
  }

  std::int64_t m_;
  std::vector<std::int32_t> comp_;  ///< node -> topologically renumbered component.
  mutable ScratchSim scratch_;      ///< Planning scratch, reseeded on every call.
};

}  // namespace

std::unique_ptr<OnlinePolicy> make_pipeline_half_full_policy(const sdf::SdfGraph& g,
                                                             const partition::Partition& p,
                                                             std::int64_t m) {
  return std::make_unique<PipelineHalfFullPolicy>(g, p, m);
}

std::unique_ptr<OnlinePolicy> make_homogeneous_m_batch_policy(const sdf::SdfGraph& g,
                                                              const partition::Partition& p,
                                                              std::int64_t m) {
  return std::make_unique<HomogeneousMBatchPolicy>(g, p, m);
}

OnlineRegistry& OnlineRegistry::global() {
  static OnlineRegistry instance;
  static const bool initialized = (register_builtin_online_policies(instance), true);
  (void)initialized;
  return instance;
}

std::vector<std::string> OnlineRegistry::applicable_keys(const sdf::SdfGraph& g) const {
  std::vector<std::string> out;
  for (const std::string& key : keys()) {
    const OnlinePolicyEntry entry = find(key);
    if (!entry.applicable || entry.applicable(g)) out.push_back(key);
  }
  return out;
}

std::unique_ptr<OnlinePolicy> OnlineRegistry::build(const std::string& name,
                                                    const sdf::SdfGraph& g,
                                                    const partition::Partition& p,
                                                    const OnlineContext& ctx) const {
  const std::string resolved = name == "auto" ? resolve_auto_policy(g) : name;
  return find(resolved).build(g, p, ctx);
}

std::string resolve_auto_policy(const sdf::SdfGraph& g) {
  if (g.is_pipeline()) return "pipeline-half-full";
  if (g.is_homogeneous()) return "homogeneous-m-batch";
  throw GraphError(
      "no online rule applies: the graph is neither a pipeline nor homogeneous "
      "(the paper's dynamic schedules cover exactly those classes)");
}

void register_builtin_online_policies(OnlineRegistry& r) {
  r.add("pipeline-half-full",
        {[](const sdf::SdfGraph& g, const partition::Partition& p, const OnlineContext& ctx) {
           return make_pipeline_half_full_policy(g, p, ctx.m);
         },
         [](const sdf::SdfGraph& g) { return g.is_pipeline(); },
         "Section 3 pipeline rule: run the first component whose input cross "
         "buffer is at least half full and output at most half full"});
  r.add("homogeneous-m-batch",
        {[](const sdf::SdfGraph& g, const partition::Partition& p, const OnlineContext& ctx) {
           return make_homogeneous_m_batch_policy(g, p, ctx.m);
         },
         [](const sdf::SdfGraph& g) { return g.is_homogeneous(); },
         "asynchronous homogeneous-dag rule: incoming cross buffers full (M "
         "tokens), outgoing empty => run M local iterations"});
}

}  // namespace ccs::schedule
