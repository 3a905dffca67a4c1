// core::Stream -- a true online streaming session.
//
// A Stream is the serving-side counterpart of a Planner plan: where the
// batch path materializes a whole firing list and replays it, a Stream
// executes *incrementally* against real arrivals. Items are pushed in as
// they arrive (push), the session advances one schedulable component
// execution at a time (step), and counters are polled live (stats) -- no
// output count is fixed in advance, which is exactly the regime of the
// paper's Section 3/4 dynamic rule. The decision rule is a pluggable
// schedule::OnlinePolicy resolved by name, and execution happens on a
// credit-metered runtime::Engine, so the source can never fire ahead of the
// input that actually arrived.
//
//   core::Planner planner(graph, opts);
//   core::Plan plan = planner.plan();
//   core::Stream stream(planner, plan);        // owns a cache of opts.cache
//   while (items_left) {
//     stream.push(arrivals());                 // admit what arrived
//     while (stream.step().progressed()) {}    // run whatever is schedulable
//   }
//   stream.drain();
//   std::cout << stream.stats().misses_per_output() << "\n";
//
// Driven with the policy's own batch allowance, a Stream reproduces the
// corresponding schedule::dynamic_*_schedule counters bit-identically (the
// golden equivalence gate in tests/core/stream_test.cc). Streams sharing
// one CacheSim model concurrent applications contending for a cache --
// core::Server multiplexes them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/planner.h"
#include "iomodel/cache.h"
#include "iomodel/types.h"
#include "latency/cost_model.h"
#include "runtime/engine.h"
#include "runtime/run_result.h"
#include "schedule/online.h"
#include "sdf/graph.h"
#include "session/swap.h"

namespace ccs::core {

/// Streaming-session knobs.
struct StreamOptions {
  /// schedule::OnlineRegistry key, or "auto" (pipeline rule for pipelines,
  /// M-batch rule for homogeneous dags).
  std::string policy = "auto";

  /// Arrivals the session will hold un-consumed before push() starts
  /// refusing items (the backpressure signal). 0 = unbounded queue.
  std::int64_t max_pending_inputs = 0;

  /// Engine knobs. credit_input is forced on -- a Stream is always metered.
  runtime::EngineOptions engine;
};

/// Everything about a session that is a pure function of its construction
/// inputs (graph, partition, M, options, cache block size): the session's
/// own copy of the graph, the online policy's analysis of it (repetition
/// vector, topological order, buffer capacities, component members), and
/// the engine's relative memory layout with its firing plans. Building it
/// is the expensive part of starting a session; instantiating a Stream from
/// it only allocates the mutable per-run state. core::Server and
/// core::Cluster build one per session at admission, price the session with
/// it, and instantiate both the first Stream and every swap-tier
/// rehydration from it. The policy's planning scratch lives here, so a plan
/// must serve one session (one live Stream) at a time -- never two tenants.
struct StreamPlan {
  /// Throws what the policy or the layout throws for a graph or partition
  /// outside the rule's class, and ccs::Error for a negative backpressure
  /// bound. `registry` defaults to schedule::OnlineRegistry::global().
  StreamPlan(const sdf::SdfGraph& g, const partition::Partition& p, std::int64_t m,
             std::int64_t block_words, StreamOptions options,
             const schedule::OnlineRegistry* registry = nullptr);

  // The policy and the layout point into `graph`.
  StreamPlan(const StreamPlan&) = delete;
  StreamPlan& operator=(const StreamPlan&) = delete;

  sdf::SdfGraph graph;
  /// engine.credit_input is forced on. engine.address_base may still be set
  /// before the first Stream is built from the plan: the layout is relative.
  StreamOptions options;
  std::unique_ptr<schedule::OnlinePolicy> policy;
  std::shared_ptr<const runtime::EngineLayout> layout;
};

/// The complete mutable state of a Stream at a quiescent point: the
/// engine's execution state plus the session-level accumulators. An
/// OnlinePolicy keeps no cross-step state (it replans from the live
/// EngineView on every call), so a Stream rebuilt from the same StreamPlan
/// makes identical decisions and nothing of the policy needs saving — this
/// struct plus the plan IS the session. It is the swap codec's own
/// snapshot type, so session::SwapImage packs it as is.
using StreamState = session::SessionSnapshot;

/// What one step() did.
struct StepResult {
  /// Component the policy executed, or schedule::kNoComponent when the
  /// session was idle (every component blocked on arrivals or space).
  std::int64_t component = schedule::kNoComponent;

  /// Counters of exactly this step (empty when idle).
  runtime::RunResult run;

  bool progressed() const noexcept { return component != schedule::kNoComponent; }
};

/// One online streaming session: a StreamPlan (graph + online policy +
/// engine layout) instantiated on a cache as a credit-metered engine.
/// Self-contained (the plan owns a copy of the graph); not thread-safe --
/// one session belongs to one driver (core::Server serializes access for
/// shared-cache tenants).
class Stream {
 public:
  /// Standalone session owning a fresh fully-associative LRU cache of
  /// `cache` geometry. The policy is bound with M = cache.capacity_words.
  Stream(const sdf::SdfGraph& g, const partition::Partition& p,
         const iomodel::CacheConfig& cache, StreamOptions options = {},
         const schedule::OnlineRegistry* registry = nullptr);

  /// Shared-cache session (multi-tenant serving): executes on `cache`,
  /// which must outlive the stream. The policy's M is still `m` -- under
  /// contention a tenant sizes its buffers for its *share*, not for the
  /// whole cache.
  Stream(const sdf::SdfGraph& g, const partition::Partition& p, iomodel::CacheSim& cache,
         std::int64_t m, StreamOptions options = {},
         const schedule::OnlineRegistry* registry = nullptr);

  /// Convenience: a session for a Planner plan, on the planner's cache
  /// geometry (the common "plan it, then serve it" path).
  Stream(const Planner& planner, const Plan& plan, StreamOptions options = {});

  /// Instantiates a prebuilt plan on a shared cache (which must outlive the
  /// stream and have the plan's block size) with fresh execution state. The
  /// constructors above build a plan and then do exactly this.
  Stream(std::shared_ptr<const StreamPlan> plan, iomodel::CacheSim& cache);

  ~Stream();  // out of line: members are incomplete types here

  /// Admits up to `items` arrivals, returning how many were accepted --
  /// fewer than `items` (the backpressure signal) when the pending queue
  /// would exceed StreamOptions::max_pending_inputs.
  std::int64_t push(std::int64_t items);

  /// Arrivals admitted but not yet consumed by the source.
  std::int64_t pending_inputs() const noexcept { return engine_->input_credit(); }

  /// True when push() would refuse at least one item.
  bool backpressured() const noexcept {
    return plan_->options.max_pending_inputs > 0 &&
           pending_inputs() >= plan_->options.max_pending_inputs;
  }

  /// Runs the next schedulable component execution (the policy's unit of
  /// work), or reports idle. Counters in the result cover exactly this
  /// step; they are also accumulated into stats().
  StepResult step();

  /// Steps until idle; returns the counters accumulated across the burst.
  runtime::RunResult run_until_idle();

  /// End of stream: aligns the source on a whole steady-state iteration
  /// (never beyond pending arrivals) and flushes every channel. Returns the
  /// drain's counters.
  runtime::RunResult drain();

  /// Counters accumulated over the whole session so far.
  const runtime::RunResult& stats() const noexcept { return totals_; }

  /// Attaches a latency cost model: every subsequent progressing step() is
  /// priced (RunResult::cost = model cycles over the step's own counters)
  /// and recorded as one sample in RunResult::latency; drain() is priced
  /// but not sampled (a terminal flush is not a serving-latency event).
  /// Null (the default) leaves cost at 0 and the histogram empty, so
  /// model-free sessions stay bit-comparable to the batch golden paths.
  /// `model` must outlive the stream; core::Cluster re-attaches its model
  /// after every rehydration.
  void set_cost_model(const latency::CostModel* model) noexcept {
    cost_model_ = model;
  }
  const latency::CostModel* cost_model() const noexcept { return cost_model_; }

  /// Items consumed (source firings) and results produced (sink firings).
  std::int64_t inputs_consumed() const;
  std::int64_t outputs_produced() const;

  /// Component executions performed (progressing step() calls).
  std::int64_t steps() const noexcept { return steps_; }

  /// Live migration onto a different cache (core::Cluster moving this
  /// session to another worker's private L1): tokens, counters, and credit
  /// all survive; the working set does not, so the next steps pay real
  /// reload misses. Only valid for shared-cache sessions -- a session that
  /// owns its cache has nowhere else to go. `cache` must outlive the stream.
  void migrate_cache(iomodel::CacheSim& cache);

  /// Address range of this session's state and channel rings (placement
  /// affinity probes rank workers by how much of it their cache holds).
  iomodel::Region layout_span() const noexcept { return engine_->layout_span(); }

  /// Footprint observation for adaptive placement: the engine's layout
  /// geometry with the counter fields replaced by this session's *attributed*
  /// totals, so tenants sharing a worker cache never window each other's
  /// traffic.
  runtime::FootprintSample footprint_sample() const noexcept;

  /// Captures the session's complete mutable state at a quiescent point
  /// (between steps). The swap tier destroys the Stream afterwards and
  /// rebuilds it from the same StreamPlan later.
  StreamState save_state() const;

  /// Restores a save_state() capture into a freshly constructed twin
  /// (built from the same plan, or an equal one). No cache traffic; after it,
  /// pushes and steps behave bit-identically to a never-destroyed session.
  void restore_state(const StreamState& state);

  const schedule::OnlinePolicy& policy() const noexcept { return *plan_->policy; }
  const sdf::SdfGraph& graph() const noexcept { return plan_->graph; }
  iomodel::CacheSim& cache() noexcept { return *cache_; }

 private:
  /// schedule::EngineView over the metered engine.
  class EngineBackedView;

  Stream(std::shared_ptr<const StreamPlan> plan, std::unique_ptr<iomodel::CacheSim> owned,
         iomodel::CacheSim* shared);

  std::shared_ptr<const StreamPlan> plan_;
  std::unique_ptr<iomodel::CacheSim> owned_cache_;  ///< Null for shared-cache sessions.
  iomodel::CacheSim* cache_;
  std::unique_ptr<runtime::Engine> engine_;
  std::unique_ptr<EngineBackedView> view_;
  const latency::CostModel* cost_model_ = nullptr;  ///< Not owned; may be null.
  runtime::RunResult totals_;
  std::int64_t steps_ = 0;
};

}  // namespace ccs::core
