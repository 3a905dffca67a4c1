// Streaming execution engine over the simulated cache.
//
// The engine owns the memory layout (state regions and channel ring buffers)
// and executes module firings against a CacheSim, enforcing SDF semantics:
// a firing consumes in(u,v) tokens from every input channel, scans the
// module's state, and produces out(v,w) tokens on every output channel.
// Underflow/overflow throw ScheduleError -- a schedule that violates buffer
// bounds is a scheduler bug, not a runtime condition.
//
// The source module additionally streams words from an unbounded external
// input region and the sink streams words to an external output region
// (the paper's "designated channels" into and out of the application);
// these sequential streams cost ~1/B misses per word for *every* scheduler
// and never interfere with partitioning decisions.
//
// Two driving modes:
//  * Batch: run(program) validates a compiled schedule::FiringProgram (one
//    period of (node, count) runs, repeated) once and executes it -- the
//    classic schedule-then-measure workflow, and what core::Stream runs for
//    every policy step. run(firings) run-length encodes a plain sequence
//    into a program first; there is no second execution path.
//  * Incremental: try_fire() is a noexcept feasibility-check-and-fire for
//    online drivers that decide the next firing from live state;
//    push_input() meters the external input so the source can only fire
//    against tokens that have actually arrived (EngineOptions::
//    credit_input), and snapshot()/take() poll the counters accumulated
//    since the last take without needing a run() boundary.
//
// Hot path: an immutable EngineLayout precomputes one FiringPlan per module
// (flattened input/output port spans, the state region, source/sink flags),
// so a firing never re-derives edge lists or rates from the graph; engines
// of one session share it. run() proves the whole program feasible in
// O(period + touched channels), independent of the repeat count: it replays
// one period at run granularity, recording each channel's net delta and
// prefix extremes, and checks the extremes at the first and last repeat
// (every level is linear in the repeat index) plus the credit total. A
// program that check rejects is replayed firing by firing, so an infeasible
// program throws exactly the ScheduleError a per-firing check would, before
// any firing executes. Execution then runs through the unchecked fast path;
// state scans and channel ring operations are issued as bulk block-granular
// cache transactions (at most two per channel operation) through the
// inlined CacheSim span entry points.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "iomodel/cache.h"
#include "iomodel/layout.h"
#include "runtime/channel.h"
#include "runtime/run_result.h"
#include "schedule/program.h"
#include "sdf/graph.h"

namespace ccs::runtime {

/// Engine knobs.
struct EngineOptions {
  /// Model external input/output streams of the source/sink (1 word per
  /// firing each). Disable to measure pure internal traffic.
  bool model_external_io = true;

  /// Attribute per-module miss deltas in RunResult::node_misses. Costs one
  /// stats snapshot per firing; disable for the biggest sweeps.
  bool per_node_attribution = true;

  /// Block-align every channel buffer instead of packing them. Packing is
  /// the default because the paper's sum(minBuf) = O(state) assumption is
  /// about tokens, not blocks; aligning one-word buffers inflates their
  /// footprint by a factor of B. Exposed for the E15 ablation.
  bool block_align_buffers = false;

  /// Meter the external input: the source may only fire against credit
  /// granted through push_input() (one credit = one source firing), so an
  /// online driver can model arrivals and starvation. Off (the default),
  /// the external input is unbounded, as the batch schedulers assume.
  bool credit_input = false;

  /// Word address where this engine's state/buffer layout begins (rounded
  /// up to a block boundary). Engines sharing one cache (multi-tenant
  /// serving) must use disjoint bases so their blocks *contend* rather than
  /// silently alias; the external stream regions are offset by the base
  /// too. Keep bases well below 2^40 (the external-stream bands).
  std::int64_t address_base = 0;
};

/// One working-set observation of an engine, polled by adaptive placement
/// (core::Cluster feeds these to placement::FootprintEstimator). The layout
/// fields are structural; the counters are lifetime totals the consumer
/// windows itself.
struct FootprintSample {
  std::int64_t layout_words = 0;  ///< State + channel rings (footprint upper bound).
  std::int64_t state_words = 0;   ///< Module-state share of the layout.
  std::int64_t accesses = 0;      ///< Lifetime cache accesses attributed to this engine.
  std::int64_t misses = 0;        ///< Lifetime cache misses attributed to this engine.
};

/// The complete mutable execution state of an Engine, captured at a
/// quiescent point (a take()/run() boundary) so an idle session's host
/// objects can be destroyed and later rebuilt bit-identically — the swap
/// tier (session::SwappedSession) packs this into a compact byte image.
///
/// What is deliberately NOT here: the memory layout and firing plans (pure
/// functions of graph + buffer_caps + options, recomputed by the Engine
/// constructor without any cache traffic) and the simulated cache contents
/// (the cache keeps or evicts the session's blocks on its own — exactly as
/// it would had the host objects stayed alive, since an idle engine issues
/// no accesses either way). Delta baselines are re-anchored on restore,
/// which is lossless at a quiescent point because every delta is zero there.
struct EngineState {
  std::vector<std::int64_t> channel_heads;  ///< Ring cursor per edge.
  std::vector<std::int64_t> channel_sizes;  ///< Queued tokens per edge.
  std::vector<std::int64_t> fired;          ///< Lifetime firings per node.
  std::int64_t input_credit = 0;            ///< Remaining source credit (credit mode).
  iomodel::Addr external_in_cursor = 0;
  iomodel::Addr external_out_cursor = 0;
  std::int64_t source_firings = 0;
  std::int64_t sink_firings = 0;
  std::int64_t total_firings = 0;
  std::int64_t state_misses = 0;    ///< Lifetime classified-miss counters.
  std::int64_t channel_misses = 0;
  std::int64_t io_misses = 0;

  friend bool operator==(const EngineState&, const EngineState&) = default;
};

/// The immutable half of an Engine, built once per (graph, buffer capacities,
/// block size, packing): the memory layout of module state and channel
/// rings, and one precomputed FiringPlan per module. Addresses are relative
/// to a block-aligned base of 0; an Engine places the layout at its
/// EngineOptions::address_base (rounded up to a block), which shifts every
/// region by a whole number of blocks and so changes no block boundary.
/// Building one is pure integer arithmetic with no cache traffic, so a
/// session host prices a session's footprint with it before admitting the
/// session, then instantiates every Engine of that session (the first and
/// each swap-tier rehydration) from the same layout. `g` must outlive it.
class EngineLayout {
 public:
  /// One side of a module's channel connections, flattened for the hot
  /// loop. `channel` doubles as the EdgeId (an engine's channels are
  /// indexed by edge).
  struct Port {
    std::int32_t channel;  ///< Channel index == sdf::EdgeId.
    std::int64_t rate;     ///< Tokens moved per firing.
  };

  /// Everything a firing needs. Ports live in the shared in_ports()/
  /// out_ports() arrays; each plan owns a span of them.
  struct FiringPlan {
    std::int32_t in_begin = 0, in_end = 0;    ///< [begin, end) into in_ports().
    std::int32_t out_begin = 0, out_end = 0;  ///< [begin, end) into out_ports().
    iomodel::Region state;                    ///< Relative to the layout base.
    bool is_source = false;
    bool is_sink = false;
  };

  /// `buffer_caps[e]` is the ring capacity (in tokens) of edge e; it must be
  /// at least max(out_rate, in_rate) of that edge (ScheduleError otherwise).
  /// State regions are block-aligned; rings are packed unless
  /// `block_align_buffers`.
  EngineLayout(const sdf::SdfGraph& g, std::vector<std::int64_t> buffer_caps,
               std::int64_t block_words, bool block_align_buffers = false);

  const sdf::SdfGraph& graph() const noexcept { return *graph_; }
  std::int64_t block_words() const noexcept { return block_words_; }
  bool block_align_buffers() const noexcept { return block_align_buffers_; }

  /// Words spanned by state and rings, including alignment padding -- the
  /// resident footprint admission control charges for the session.
  std::int64_t footprint_words() const noexcept { return footprint_words_; }

  /// Module-state share of the footprint.
  std::int64_t state_words() const noexcept { return state_words_; }

  const std::vector<std::int64_t>& buffer_caps() const noexcept { return caps_; }
  const std::vector<iomodel::Region>& rings() const noexcept { return rings_; }
  const std::vector<FiringPlan>& plans() const noexcept { return plans_; }
  const std::vector<Port>& in_ports() const noexcept { return in_ports_; }
  const std::vector<Port>& out_ports() const noexcept { return out_ports_; }

  /// The graph's unique source/sink, or sdf::kInvalidNode when it has
  /// several.
  sdf::NodeId source() const noexcept { return source_; }
  sdf::NodeId sink() const noexcept { return sink_; }

 private:
  const sdf::SdfGraph* graph_;
  std::int64_t block_words_;
  bool block_align_buffers_;
  std::vector<std::int64_t> caps_;
  std::vector<iomodel::Region> rings_;  ///< Per edge, relative.
  std::vector<FiringPlan> plans_;       ///< Per node.
  std::vector<Port> in_ports_;          ///< All input ports, grouped by node.
  std::vector<Port> out_ports_;         ///< All output ports, grouped by node.
  std::int64_t footprint_words_ = 0;
  std::int64_t state_words_ = 0;
  sdf::NodeId source_ = sdf::kInvalidNode;
  sdf::NodeId sink_ = sdf::kInvalidNode;
};

/// Executes firing sequences for one graph + buffer-capacity assignment.
class Engine {
 public:
  /// Builds an EngineLayout for (g, buffer_caps) on the cache's block size
  /// and instantiates it. `g` and `cache` must outlive the engine.
  Engine(const sdf::SdfGraph& g, std::vector<std::int64_t> buffer_caps,
         iomodel::CacheSim& cache, EngineOptions options = {});

  /// Instantiates a prebuilt layout at options.address_base. The layout's
  /// block size must be the cache's and its packing must match
  /// options.block_align_buffers. `cache` must outlive the engine.
  Engine(std::shared_ptr<const EngineLayout> layout, iomodel::CacheSim& cache,
         EngineOptions options = {});

  /// Sentinel input_credit() when the external input is not metered.
  static constexpr std::int64_t kUnlimitedCredit =
      std::numeric_limits<std::int64_t>::max();

  /// True iff every input has enough tokens, every output enough space, and
  /// (under credit_input) the source has arrival credit left.
  bool can_fire(sdf::NodeId v) const;

  /// Executes one firing. Throws ScheduleError (before any memory traffic
  /// or token movement) if v cannot fire.
  void fire(sdf::NodeId v);

  /// Feasibility check plus firing in one noexcept call -- the online hot
  /// path. Returns false (touching nothing: no tokens, no memory traffic,
  /// no counters) when v cannot fire right now, including an out-of-range
  /// id, a blocked channel, or an exhausted input credit; true after the
  /// firing executed. fire() keeps its throwing contract for batch callers.
  bool try_fire(sdf::NodeId v) noexcept;

  /// Grants `count` further source firings' worth of external input
  /// (requires EngineOptions::credit_input). Saturates at kUnlimitedCredit.
  void push_input(std::int64_t count);

  /// Source firings the external input can still cover: granted minus
  /// consumed credit, or kUnlimitedCredit when the input is not metered.
  std::int64_t input_credit() const noexcept {
    return options_.credit_input ? input_credit_ : kUnlimitedCredit;
  }

  /// Executes the program, returning the counters accumulated since the
  /// previous take (or construction). The whole program is validated up
  /// front; an infeasible one throws ScheduleError naming the first
  /// offending firing, with no tokens moved and no memory traffic.
  RunResult run(const schedule::FiringProgram& program);

  /// Fires the sequence in order: run() of its run-length encoding.
  RunResult run(std::span<const sdf::NodeId> firings) {
    return run(schedule::FiringProgram::encode(firings));
  }

  /// Counters accumulated since the last take()/run() boundary, without
  /// resetting the baseline: polling twice returns the same deltas.
  RunResult snapshot() const;

  /// Counters accumulated since the last take()/run() boundary, then
  /// re-anchors the baseline so the next take reports only new work. run()
  /// is equivalent to validate + fire-all + take().
  RunResult take();

  /// Re-anchors only the cache-statistics baseline at the cache's current
  /// counters. On a cache shared between engines (multi-tenant serving),
  /// call this before each run/take window so traffic other engines
  /// generated in between is not attributed to this one; firing and
  /// classified-miss baselines are engine-local and unaffected.
  void resync_cache_baseline() { last_stats_ = cache_->stats(); }

  /// Tokens currently queued on edge e.
  std::int64_t tokens(sdf::EdgeId e) const {
    return channels_[static_cast<std::size_t>(e)].size();
  }

  /// Free slots on edge e.
  std::int64_t space(sdf::EdgeId e) const {
    return channels_[static_cast<std::size_t>(e)].space();
  }

  /// Lifetime firing count of module v.
  std::int64_t fired(sdf::NodeId v) const {
    return fired_[static_cast<std::size_t>(v)];
  }

  /// True iff every channel is empty.
  bool drained() const;

  /// Empties all channels without memory traffic and resets firing counters
  /// (cache contents and statistics are left untouched).
  void reset_tokens();

  /// Rebinds the engine to a different cache of the same block size and
  /// restores the as-constructed execution state: channels empty, firing and
  /// classified-miss counters zeroed, external IO cursors rewound, and the
  /// delta baselines re-anchored to the new cache's current statistics. A
  /// sweep worker can therefore reuse one constructed engine (layout and
  /// firing plans are preserved) across repeated measurements, each against
  /// a cold cache, and observe counters identical to a freshly constructed
  /// engine. `cache` must outlive the engine.
  void rebind_cache(iomodel::CacheSim& cache);

  /// Live migration: rebinds the engine to a different cache of the same
  /// block size WITHOUT touching execution state. Tokens, firing counters,
  /// classified-miss totals, input credit, and external cursors all
  /// survive; only the cache-statistics delta baseline is re-anchored on
  /// the new cache. The new cache does not hold this engine's working set,
  /// so the next firings pay real reload misses -- the multicore migration
  /// cost core::Cluster models (contrast rebind_cache, which restarts the
  /// run for sweep reuse). Call between run/take windows, never mid-run.
  void migrate_cache(iomodel::CacheSim& cache);

  /// Captures the complete mutable execution state. Must be called at a
  /// quiescent point: every counter since the last take()/run() must have
  /// been taken (engine-local deltas are asserted zero), so re-anchoring
  /// the baselines on restore loses nothing.
  EngineState save_state() const;

  /// Restores a state captured by save_state() from an engine built for
  /// the same graph, buffer capacities, and options (vector lengths are
  /// validated; a mismatch throws ScheduleError). Issues NO cache traffic
  /// and re-anchors all delta baselines at the restored lifetime counters
  /// and the bound cache's current statistics — the swap-tier rehydration
  /// contract: a restored engine's subsequent firings are bit-identical to
  /// one that was never torn down.
  void restore_state(const EngineState& state);

  const sdf::SdfGraph& graph() const noexcept { return *graph_; }
  iomodel::CacheSim& cache() noexcept { return *cache_; }
  std::int64_t state_footprint() const noexcept { return layout_->state_words(); }

  /// Footprint snapshot for adaptive placement: the layout geometry plus the
  /// cache's lifetime counters. On a *dedicated* cache the counters are this
  /// engine's own traffic; on a shared cache the caller must substitute
  /// per-tenant attributed totals (core::Stream::footprint_sample does).
  FootprintSample footprint_sample() const noexcept;

  /// The address range holding this engine's state and channel rings (from
  /// EngineOptions::address_base to the layout cursor; excludes the
  /// external-stream bands). Placement-affinity probes rank workers by how
  /// much of this span their private cache holds.
  iomodel::Region layout_span() const noexcept {
    return iomodel::Region{options_.address_base,
                           base_ + layout_->footprint_words() - options_.address_base};
  }

  /// Heavy cross-consistency walk of the execution state: every channel's
  /// token count within [0, capacity], the input credit non-negative (or
  /// the unlimited sentinel), every firing plan's port spans within the
  /// flattened port arrays with each port naming a real channel, and the
  /// firing/miss tallies internally consistent. Throws ContractViolation on
  /// the first inconsistency. Audit builds (-DCCS_AUDIT=ON) run it at
  /// run()/take() boundaries and sampled firing boundaries; tests may call
  /// it in any build.
  void audit_invariants() const;

 private:
  using Port = EngineLayout::Port;
  using FiringPlan = EngineLayout::FiringPlan;

  /// Shared feasibility scan: returns the first port of v that cannot fire
  /// given per-channel token counts `size_of(channel)`, or nullptr if all
  /// can; sets `underflow` to distinguish the failure direction. The single
  /// home of the per-firing feasibility rule — can_fire, fire, and
  /// replay_program all go through it.
  template <typename SizeOf>
  const Port* first_blocked_port(sdf::NodeId v, SizeOf&& size_of, bool& underflow) const {
    const FiringPlan& plan = plans_[static_cast<std::size_t>(v)];
    for (std::int32_t i = plan.in_begin; i < plan.in_end; ++i) {
      const Port& p = in_ports_[static_cast<std::size_t>(i)];
      if (size_of(p.channel) < p.rate) {
        underflow = true;
        return &p;
      }
    }
    for (std::int32_t i = plan.out_begin; i < plan.out_end; ++i) {
      const Port& p = out_ports_[static_cast<std::size_t>(i)];
      if (channels_[static_cast<std::size_t>(p.channel)].capacity() - size_of(p.channel) <
          p.rate) {
        underflow = false;
        return &p;
      }
    }
    return nullptr;
  }

  /// Builds the ScheduleError for a blocked port found by first_blocked_port.
  [[noreturn]] void throw_blocked(sdf::NodeId v, const Port& p, bool underflow) const;

  /// The O(period + touched channels) check: true iff every firing of the
  /// program is feasible. May return false for a feasible program only
  /// where its arithmetic would overflow, which run() settles by replay.
  bool program_fits(const schedule::FiringProgram& program);

  /// Replays the program firing by firing against token counters only,
  /// throwing on the first infeasible firing (including a source firing
  /// beyond the granted input credit when the input is metered).
  void replay_program(const schedule::FiringProgram& program) const;

  /// Executes one pre-validated firing.
  void fire_unchecked(sdf::NodeId v);

  /// Assembles the delta-since-baseline counters (shared by snapshot/take).
  RunResult delta_counters() const;

  /// Re-anchors every last_* baseline at the current lifetime counters.
  void advance_baselines();

  std::shared_ptr<const EngineLayout> layout_;
  const sdf::SdfGraph* graph_;
  iomodel::CacheSim* cache_;
  EngineOptions options_;
  iomodel::Addr base_ = 0;            // block-aligned address_base; layout offsets add to it
  // The layout's arrays, cached for the hot loop (the layout is immutable
  // and outlives the engine through layout_).
  const FiringPlan* plans_;           // per node
  const Port* in_ports_;              // all input ports, grouped by node
  const Port* out_ports_;             // all output ports, grouped by node
  std::vector<Channel> channels_;     // per edge
  std::vector<std::int64_t> fired_;   // per node, lifetime

  /// One channel's token-level excursion over a program period, relative to
  /// the level at the period's start: net change and prefix extremes.
  struct Excursion {
    std::int32_t channel = 0;
    std::int64_t delta = 0;
    std::int64_t lo = 0;
    std::int64_t hi = 0;
  };
  std::vector<Excursion> excursions_;  // channels the last checked period moved
  std::vector<std::int32_t> slot_of_;  // per edge: 1 + index into excursions_, or 0

  sdf::NodeId source_ = sdf::kInvalidNode;
  sdf::NodeId sink_ = sdf::kInvalidNode;
  std::int64_t input_credit_ = 0;  ///< Remaining source firings (credit mode).
  iomodel::Addr external_in_cursor_ = 0;
  iomodel::Addr external_out_cursor_ = 0;
  iomodel::Region external_in_;
  iomodel::Region external_out_;

  // Baseline counters for delta reporting in run().
  iomodel::CacheStats last_stats_;
  std::int64_t last_firings_ = 0;
  std::int64_t last_source_firings_ = 0;
  std::int64_t last_sink_firings_ = 0;
  std::int64_t source_firings_ = 0;
  std::int64_t sink_firings_ = 0;
  std::int64_t total_firings_ = 0;
  std::vector<std::int64_t> node_miss_base_;

  // Classified miss counters (lifetime + last-run baselines).
  std::int64_t state_misses_ = 0;
  std::int64_t channel_misses_ = 0;
  std::int64_t io_misses_ = 0;
  std::int64_t last_state_misses_ = 0;
  std::int64_t last_channel_misses_ = 0;
  std::int64_t last_io_misses_ = 0;

  /// Audit-mode sampling counter: a full audit_invariants() walk per firing
  /// would turn O(n) runs into O(n^2), so audit builds walk every 64th
  /// firing plus every run/take boundary. Unused outside audit builds.
  [[maybe_unused]] std::int64_t audit_tick_ = 0;
};

}  // namespace ccs::runtime
