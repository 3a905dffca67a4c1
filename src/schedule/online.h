// Online scheduling policies (Sections 3-4, the dynamic rule as a session).
//
// The paper's dynamic rule is *online*: no output count is fixed in advance,
// and the next component to execute is decided from live buffer occupancy
// (half-full/half-empty for pipelines, the M-batch rule for homogeneous
// dags). An OnlinePolicy is that decision rule made stateful and reusable:
// it is bound to one (graph, partition, M) at construction, dictates the
// buffer capacities execution must provide, and -- consulted through a
// read-only EngineView of whatever is executing (a cache-measuring
// runtime::Engine behind core::Stream, or a bare TokenSim behind the batch
// wrappers in schedule/dynamic.h) -- plans one component execution at a
// time. Policies are pure planners: they never mutate the execution state,
// so a driver may discard or replay a plan, and the same policy object
// drives both the online serving path and the batch materialization
// bit-identically.
//
// Policies are string-keyed in OnlineRegistry ("pipeline-half-full",
// "homogeneous-m-batch"); resolve_auto_policy() picks the applicable rule
// for a graph the way core::Planner's "auto" picks a partitioner.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "partition/partition.h"
#include "schedule/program.h"
#include "sdf/graph.h"
#include "util/registry.h"

namespace ccs::schedule {

/// next_component() result when no component is schedulable right now.
inline constexpr std::int64_t kNoComponent = -1;

/// input_credit() value of a driver whose external input is unbounded.
/// Matches runtime::Engine::kUnlimitedCredit (the layers cannot share the
/// constant without inverting the runtime -> schedule dependency).
inline constexpr std::int64_t kUnlimitedCredit =
    std::numeric_limits<std::int64_t>::max();

/// Read-only view of a driver's execution state -- everything an online
/// policy may consult when deciding what to run next.
class EngineView {
 public:
  virtual ~EngineView() = default;

  /// Tokens currently queued on edge e.
  virtual std::int64_t tokens(sdf::EdgeId e) const = 0;

  /// Ring capacity of edge e (as dictated by OnlinePolicy::buffer_caps).
  virtual std::int64_t capacity(sdf::EdgeId e) const = 0;

  /// Lifetime firings of module v.
  virtual std::int64_t fired(sdf::NodeId v) const = 0;

  /// Source firings the external input can still cover, or kUnlimitedCredit
  /// when arrivals are not metered.
  virtual std::int64_t input_credit() const = 0;
};

/// One planned component execution: a single run-to-blocking (pipeline) or
/// M-iteration (homogeneous) burst as a compiled firing program -- the
/// pipeline rule's batches as runs, the M-batch rule's burst as one pass
/// over the members repeated M times. An empty plan means the policy is
/// idle -- every component is blocked on arrivals or downstream space.
struct StepPlan {
  std::int64_t component = kNoComponent;  ///< Which component the burst runs.
  FiringProgram program;                  ///< The burst, in execution order.

  bool idle() const noexcept { return program.empty(); }
};

/// An online scheduling rule bound to one (graph, partition, M).
/// Construction validates the partition against the rule's requirements and
/// fixes the buffer sizing -- the graph analysis a session needs once; the
/// planning calls are const and plan against a caller-supplied view, so one
/// policy serves every incarnation of a session (core::StreamPlan). They
/// share one internal token scratchpad, reseeded on every call: a policy
/// must not plan on two threads at once. The bound graph must outlive the
/// policy.
class OnlinePolicy {
 public:
  virtual ~OnlinePolicy() = default;

  OnlinePolicy(const OnlinePolicy&) = delete;
  OnlinePolicy& operator=(const OnlinePolicy&) = delete;

  /// Registry key this policy was built as ("pipeline-half-full", ...).
  const std::string& name() const noexcept { return name_; }

  /// Per-edge ring capacities the rule requires (Theta(M) cross buffers,
  /// minimal internal buffers). Drivers must execute under exactly these.
  const std::vector<std::int64_t>& buffer_caps() const noexcept { return caps_; }

  /// Components of the bound partition, renumbered topologically.
  std::int64_t num_components() const noexcept { return k_; }

  /// The designated external-input module of the bound graph.
  sdf::NodeId source() const noexcept { return source_; }

  /// The designated external-output module of the bound graph.
  sdf::NodeId sink() const noexcept { return sink_; }

  /// Members of component c in the rule's intra-component execution order.
  const std::vector<sdf::NodeId>& members(std::int64_t c) const {
    return members_[static_cast<std::size_t>(c)];
  }

  /// The bare decision rule: which component the paper's scan designates
  /// under `view` (pipelines always designate one; homogeneous dags return
  /// kNoComponent when nothing is schedulable). Exposed for introspection;
  /// next_step() already folds it in.
  virtual std::int64_t next_component(const EngineView& view) const = 0;

  /// Plans the next component execution from `view`: picks the component
  /// (including the pipeline progress fallback when the designated one is
  /// blocked) and simulates its full burst. Idle plan = nothing can move.
  virtual StepPlan next_step(const EngineView& view) const = 0;

  /// Plans the end-of-stream drain from `view`: aligns the source on whole
  /// steady-state iterations (never beyond the remaining input credit) and
  /// flushes every channel. Executing the plan empties all buffers whenever
  /// the alignment was reachable.
  virtual FiringProgram plan_drain(const EngineView& view) const = 0;

  /// Source-firing allowance a batch driver should grant so the rule can
  /// produce at least `min_outputs` sink firings and still drain on a whole
  /// steady-state boundary (kUnlimitedCredit when the rule needs no cap).
  virtual std::int64_t batch_credit(std::int64_t min_outputs) const = 0;

 protected:
  OnlinePolicy(std::string name, const sdf::SdfGraph& g) : name_(std::move(name)), graph_(&g) {}

  std::string name_;
  const sdf::SdfGraph* graph_;
  std::vector<std::int64_t> caps_;                 ///< Per-edge capacities.
  std::vector<std::vector<sdf::NodeId>> members_;  ///< Per component.
  std::int64_t k_ = 0;
  sdf::NodeId source_ = sdf::kInvalidNode;
  sdf::NodeId sink_ = sdf::kInvalidNode;
};

/// The paper's pipeline rule (Section 3): a component is schedulable when
/// its input cross buffer is at least half full and its output cross buffer
/// at most half full; it runs until one of them blocks. Requires a
/// well-ordered segmentation of a pipeline graph (throws GraphError /
/// ccs::Error otherwise).
std::unique_ptr<OnlinePolicy> make_pipeline_half_full_policy(const sdf::SdfGraph& g,
                                                             const partition::Partition& p,
                                                             std::int64_t m);

/// The asynchronous homogeneous-dag rule (Section 5 variant): a component is
/// schedulable when every incoming cross buffer holds M tokens and every
/// outgoing one is empty; it then runs M local iterations. Requires a
/// well-ordered partition of a homogeneous graph.
std::unique_ptr<OnlinePolicy> make_homogeneous_m_batch_policy(const sdf::SdfGraph& g,
                                                              const partition::Partition& p,
                                                              std::int64_t m);

/// What an online policy may consult at build time: the cache size M the
/// rule's Theta(M) buffers amortize against.
struct OnlineContext {
  std::int64_t m = 64 * 1024;  ///< Cache capacity in words.
};

/// A named online-policy factory.
struct OnlinePolicyEntry {
  /// Binds the rule to (g, p, ctx) or throws a ccs::Error subclass when the
  /// graph/partition is outside the rule's class.
  std::function<std::unique_ptr<OnlinePolicy>(
      const sdf::SdfGraph&, const partition::Partition&, const OnlineContext&)>
      build;

  /// True iff the rule makes sense for this graph; null = always.
  std::function<bool(const sdf::SdfGraph&)> applicable;

  /// One-line description for --help style listings.
  std::string description;
};

/// String-keyed online-policy table. See util/registry.h for the shared
/// add/find/keys semantics (duplicate and unknown keys throw ccs::Error).
class OnlineRegistry : public NamedRegistry<OnlinePolicyEntry> {
 public:
  OnlineRegistry() : NamedRegistry<OnlinePolicyEntry>("online rule") {}

  /// The process-wide registry, seeded with the built-ins on first use.
  static OnlineRegistry& global();

  /// Keys of every rule applicable to `g`, sorted.
  std::vector<std::string> applicable_keys(const sdf::SdfGraph& g) const;

  /// Looks up `name` ("auto" resolves via resolve_auto_policy) and binds it.
  /// Throws ccs::Error (listing valid keys) for unknown names; propagates
  /// the rule's own validation errors.
  std::unique_ptr<OnlinePolicy> build(const std::string& name, const sdf::SdfGraph& g,
                                      const partition::Partition& p,
                                      const OnlineContext& ctx) const;
};

/// The registry key "auto" resolves to for `g`: the pipeline rule for
/// pipelines, the M-batch rule for homogeneous dags. Throws GraphError for
/// graphs in neither class (no online rule is known for general multirate
/// dags; see docs/ARCHITECTURE.md).
std::string resolve_auto_policy(const sdf::SdfGraph& g);

/// Registers the built-in rules into `r` (used by global(); exposed so tests
/// can build isolated registries): pipeline-half-full, homogeneous-m-batch.
void register_builtin_online_policies(OnlineRegistry& r);

}  // namespace ccs::schedule
