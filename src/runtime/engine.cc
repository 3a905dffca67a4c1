#include "runtime/engine.h"

#include <algorithm>
#include <utility>

#include "util/contract.h"
#include "util/error.h"
#include "util/int_math.h"

namespace ccs::runtime {

namespace {

// External streams live far above anything MemoryLayout hands out, so they
// can grow without bound and never collide with state/buffer regions.
constexpr iomodel::Addr kExternalInBase = iomodel::Addr{1} << 40;
constexpr iomodel::Addr kExternalOutBase = iomodel::Addr{1} << 41;

}  // namespace

EngineLayout::EngineLayout(const sdf::SdfGraph& g, std::vector<std::int64_t> buffer_caps,
                           std::int64_t block_words, bool block_align_buffers)
    : graph_(&g),
      block_words_(block_words),
      block_align_buffers_(block_align_buffers),
      caps_(std::move(buffer_caps)) {
  CCS_EXPECTS(g.node_count() > 0, "cannot build an engine for an empty graph");
  CCS_EXPECTS(caps_.size() == static_cast<std::size_t>(g.edge_count()),
              "one buffer capacity per edge required");
  iomodel::MemoryLayout layout(block_words, 0);
  std::vector<iomodel::Region> state;
  state.reserve(static_cast<std::size_t>(g.node_count()));
  for (sdf::NodeId v = 0; v < g.node_count(); ++v) {
    state.push_back(layout.allocate(g.node(v).state, "state"));
    state_words_ += g.node(v).state;
  }
  rings_.reserve(static_cast<std::size_t>(g.edge_count()));
  for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
    const sdf::Edge& edge = g.edge(e);
    const std::int64_t cap = caps_[static_cast<std::size_t>(e)];
    if (cap < std::max(edge.out_rate, edge.in_rate)) {
      throw ScheduleError("buffer on " + g.node(edge.src).name + " -> " +
                          g.node(edge.dst).name + " (capacity " + std::to_string(cap) +
                          ") cannot hold one burst");
    }
    // Buffers are packed (not block-aligned) by default: dozens of one-word
    // minimal channels must not consume a cache block each, or the paper's
    // sum(minBuf) = O(state) assumption silently becomes O(edges * B).
    rings_.push_back(layout.allocate(cap, "buf", block_align_buffers));
  }
  footprint_words_ = layout.footprint();

  const auto sources = g.sources();
  const auto sinks = g.sinks();
  if (sources.size() == 1) source_ = sources.front();
  if (sinks.size() == 1) sink_ = sinks.front();

  // One firing plan per module so a firing never walks the graph.
  plans_.resize(static_cast<std::size_t>(g.node_count()));
  for (sdf::NodeId v = 0; v < g.node_count(); ++v) {
    FiringPlan& plan = plans_[static_cast<std::size_t>(v)];
    plan.in_begin = static_cast<std::int32_t>(in_ports_.size());
    for (const sdf::EdgeId e : g.in_edges(v)) {
      in_ports_.push_back(Port{e, g.edge(e).in_rate});
    }
    plan.in_end = static_cast<std::int32_t>(in_ports_.size());
    plan.out_begin = static_cast<std::int32_t>(out_ports_.size());
    for (const sdf::EdgeId e : g.out_edges(v)) {
      out_ports_.push_back(Port{e, g.edge(e).out_rate});
    }
    plan.out_end = static_cast<std::int32_t>(out_ports_.size());
    plan.state = state[static_cast<std::size_t>(v)];
    plan.is_source = v == source_;
    plan.is_sink = v == sink_;
  }
}

Engine::Engine(const sdf::SdfGraph& g, std::vector<std::int64_t> buffer_caps,
               iomodel::CacheSim& cache, EngineOptions options)
    : Engine(std::make_shared<const EngineLayout>(g, std::move(buffer_caps),
                                                  cache.config().block_words,
                                                  options.block_align_buffers),
             cache, options) {}

Engine::Engine(std::shared_ptr<const EngineLayout> layout, iomodel::CacheSim& cache,
               EngineOptions options)
    : layout_(std::move(layout)),
      graph_(&layout_->graph()),
      cache_(&cache),
      options_(options),
      plans_(layout_->plans().data()),
      in_ports_(layout_->in_ports().data()),
      out_ports_(layout_->out_ports().data()) {
  CCS_EXPECTS(options_.address_base >= 0 && options_.address_base < kExternalInBase,
              "address base must stay below the external-stream bands");
  CCS_EXPECTS(layout_->block_words() == cache.config().block_words,
              "engine layout was built for a different block size");
  CCS_EXPECTS(layout_->block_align_buffers() == options_.block_align_buffers,
              "engine layout was built with different buffer packing");
  base_ = round_up(options_.address_base, layout_->block_words());
  // The whole state/buffer layout must sit below the external-stream bands,
  // or a co-resident engine's regions would silently alias another's
  // external streams instead of contending for blocks.
  CCS_EXPECTS(layout_->footprint_words() <= kExternalInBase - base_,
              "state/buffer layout overflows into the external-stream bands "
              "(address base too high for this graph's footprint)");
  const std::vector<iomodel::Region>& rings = layout_->rings();
  channels_.reserve(rings.size());
  for (std::size_t e = 0; e < rings.size(); ++e) {
    channels_.emplace_back(iomodel::Region{base_ + rings[e].base, rings[e].words},
                           layout_->buffer_caps()[e]);
  }
  fired_.assign(static_cast<std::size_t>(graph_->node_count()), 0);
  node_miss_base_.assign(static_cast<std::size_t>(graph_->node_count()), 0);
  slot_of_.assign(rings.size(), 0);
  source_ = layout_->source();
  sink_ = layout_->sink();
  external_in_ = iomodel::Region{kExternalInBase + options_.address_base, 0};
  external_out_ = iomodel::Region{kExternalOutBase + options_.address_base, 0};
}

bool Engine::can_fire(sdf::NodeId v) const {
  CCS_EXPECTS(v >= 0 && v < graph_->node_count(), "node id out of range");
  if (options_.credit_input && v == source_ && input_credit_ <= 0) return false;
  bool underflow = false;
  const auto live = [this](std::int32_t ch) {
    return channels_[static_cast<std::size_t>(ch)].size();
  };
  return first_blocked_port(v, live, underflow) == nullptr;
}

bool Engine::try_fire(sdf::NodeId v) noexcept {
  if (v < 0 || v >= graph_->node_count()) return false;
  if (options_.credit_input && v == source_ && input_credit_ <= 0) return false;
  bool underflow = false;
  const auto live = [this](std::int32_t ch) {
    return channels_[static_cast<std::size_t>(ch)].size();
  };
  if (first_blocked_port(v, live, underflow) != nullptr) return false;
  fire_unchecked(v);
  return true;
}

void Engine::push_input(std::int64_t count) {
  CCS_EXPECTS(options_.credit_input,
              "push_input requires EngineOptions::credit_input");
  CCS_EXPECTS(count >= 0, "input credit must be non-negative");
  input_credit_ = input_credit_ > kUnlimitedCredit - count ? kUnlimitedCredit
                                                           : input_credit_ + count;
}

void Engine::throw_blocked(sdf::NodeId v, const Port& p, bool underflow) const {
  throw ScheduleError("firing '" + graph_->node(v).name + "' would " +
                      (underflow ? "underflow" : "overflow") + " channel " +
                      std::to_string(p.channel));
}

bool Engine::program_fits(const schedule::FiringProgram& program) {
  // Replay one period at run granularity. A run of v fires it `count` times
  // back to back; v's input and output channels are distinct (the graph
  // has no self-loops), so each moves monotonically during the run and
  // its extreme is the level at the run's end. Recording every channel's
  // net delta d and the prefix minimum lo / maximum hi of its offset from
  // the period's start then captures every level the program reaches: in
  // repeat j (0-based) a channel sits at start + j*d + offset, linear in j,
  // so its lowest and highest levels over all repeats occur at j = 0 or
  // j = repeat-1. Per-firing feasibility is exactly "after every firing,
  // each channel it moved lies in [0, capacity]", so checking those two
  // repeats' extremes (plus the credit total) is exact. Any arithmetic
  // overflow -- impossible for a feasible program, whose levels all stay
  // within capacity -- just returns false and leaves it to the replay.
  for (const Excursion& x : excursions_) slot_of_[static_cast<std::size_t>(x.channel)] = 0;
  excursions_.clear();
  const auto touch = [this](std::int32_t ch) -> Excursion& {
    std::int32_t& slot = slot_of_[static_cast<std::size_t>(ch)];
    if (slot == 0) {
      excursions_.push_back(Excursion{ch, 0, 0, 0});
      slot = static_cast<std::int32_t>(excursions_.size());
    }
    return excursions_[static_cast<std::size_t>(slot - 1)];
  };
  std::int64_t source_per_period = 0;
  for (const schedule::FiringRun& run : program.runs) {
    if (run.node < 0 || run.node >= graph_->node_count() || run.count <= 0) return false;
    const FiringPlan& plan = plans_[static_cast<std::size_t>(run.node)];
    for (std::int32_t i = plan.in_begin; i < plan.in_end; ++i) {
      const Port& p = in_ports_[static_cast<std::size_t>(i)];
      Excursion& x = touch(p.channel);
      std::int64_t moved = 0;
      if (__builtin_mul_overflow(p.rate, std::int64_t{run.count}, &moved) ||
          __builtin_sub_overflow(x.delta, moved, &x.delta)) {
        return false;
      }
      x.lo = std::min(x.lo, x.delta);
    }
    for (std::int32_t i = plan.out_begin; i < plan.out_end; ++i) {
      const Port& p = out_ports_[static_cast<std::size_t>(i)];
      Excursion& x = touch(p.channel);
      std::int64_t moved = 0;
      if (__builtin_mul_overflow(p.rate, std::int64_t{run.count}, &moved) ||
          __builtin_add_overflow(x.delta, moved, &x.delta)) {
        return false;
      }
      x.hi = std::max(x.hi, x.delta);
    }
    if (run.node == source_ &&
        __builtin_add_overflow(source_per_period, std::int64_t{run.count}, &source_per_period)) {
      return false;
    }
  }
  if (options_.credit_input) {
    // The replay decrements one credit per source firing and rejects the
    // firing that finds none left: feasible iff the total fits the credit.
    std::int64_t need = 0;
    if (__builtin_mul_overflow(source_per_period, program.repeat, &need) ||
        need > input_credit_) {
      return false;
    }
  }
  if (program.repeat == 0) return true;
  const std::int64_t last = program.repeat - 1;
  for (const Excursion& x : excursions_) {
    const Channel& c = channels_[static_cast<std::size_t>(x.channel)];
    // Levels at the first repeat's extremes (start in [0, capacity], so
    // neither sum can overflow in the direction that is checked)...
    if (c.size() + x.lo < 0 || x.hi > c.capacity() - c.size()) return false;
    // ... and at the last one's.
    std::int64_t drift = 0;
    std::int64_t low = 0;
    std::int64_t high = 0;
    if (__builtin_mul_overflow(last, x.delta, &drift) ||
        __builtin_add_overflow(c.size() + x.lo, drift, &low) ||
        __builtin_add_overflow(c.size() + x.hi, drift, &high) || low < 0 ||
        high > c.capacity()) {
      return false;
    }
  }
  return true;
}

void Engine::replay_program(const schedule::FiringProgram& program) const {
  // Token-count replay: pure integer arithmetic, no cache traffic. Throws
  // the same errors fire() would, before any firing has executed. This is
  // the rejection path, so its scratch is allocated per call.
  std::vector<std::int64_t> sizes(channels_.size());
  for (std::size_t e = 0; e < channels_.size(); ++e) sizes[e] = channels_[e].size();
  std::int64_t credit = input_credit_;
  const auto replayed = [&sizes](std::int32_t ch) { return sizes[static_cast<std::size_t>(ch)]; };
  program.for_each([&](sdf::NodeId v) {
    CCS_EXPECTS(v >= 0 && v < graph_->node_count(), "node id out of range");
    if (options_.credit_input && v == source_ && credit-- <= 0) {
      throw ScheduleError("firing '" + graph_->node(v).name +
                          "' exceeds the granted external input credit");
    }
    bool underflow = false;
    if (const Port* p = first_blocked_port(v, replayed, underflow)) {
      throw_blocked(v, *p, underflow);
    }
    const FiringPlan& plan = plans_[static_cast<std::size_t>(v)];
    for (std::int32_t i = plan.in_begin; i < plan.in_end; ++i) {
      const Port& p = in_ports_[static_cast<std::size_t>(i)];
      sizes[static_cast<std::size_t>(p.channel)] -= p.rate;
    }
    for (std::int32_t i = plan.out_begin; i < plan.out_end; ++i) {
      const Port& p = out_ports_[static_cast<std::size_t>(i)];
      sizes[static_cast<std::size_t>(p.channel)] += p.rate;
    }
  });
}

void Engine::fire(sdf::NodeId v) {
  CCS_EXPECTS(v >= 0 && v < graph_->node_count(), "node id out of range");
  if (options_.credit_input && v == source_ && input_credit_ <= 0) {
    throw ScheduleError("firing '" + graph_->node(v).name +
                        "' exceeds the granted external input credit");
  }
  // Validate both directions before any memory traffic so a throwing fire
  // leaves token counts unchanged.
  bool underflow = false;
  const auto live = [this](std::int32_t ch) {
    return channels_[static_cast<std::size_t>(ch)].size();
  };
  if (const Port* p = first_blocked_port(v, live, underflow)) {
    throw_blocked(v, *p, underflow);
  }
  fire_unchecked(v);
}

void Engine::fire_unchecked(sdf::NodeId v) {
  const FiringPlan& plan = plans_[static_cast<std::size_t>(v)];
  // One virtual stats() call per firing: the reference tracks the live
  // counters, so the per-phase snapshots below are plain loads.
  const iomodel::CacheStats& stats = cache_->stats();
  const std::int64_t miss_before = stats.misses;

  // Consume inputs, then execute (scan state), then produce outputs --
  // the natural data flow of a filter body. Phase boundaries snapshot the
  // miss counter so RunResult can break misses down by cause.
  for (std::int32_t i = plan.in_begin; i < plan.in_end; ++i) {
    const Port& p = in_ports_[static_cast<std::size_t>(i)];
    channels_[static_cast<std::size_t>(p.channel)].pop(p.rate, *cache_);
  }
  const std::int64_t after_pops = stats.misses;
  if (options_.model_external_io && plan.is_source) {
    cache_->access(external_in_.base + external_in_cursor_++, iomodel::AccessMode::kRead);
  }
  const std::int64_t after_in = stats.misses;
  // State regions are block-aligned, so the span touches exactly
  // ceil(state/B) blocks in one bulk transaction.
  if (plan.state.words > 0) {
    cache_->access_span(base_ + plan.state.base, plan.state.words,
                        iomodel::AccessMode::kRead);
  }
  const std::int64_t after_state = stats.misses;
  for (std::int32_t i = plan.out_begin; i < plan.out_end; ++i) {
    const Port& p = out_ports_[static_cast<std::size_t>(i)];
    channels_[static_cast<std::size_t>(p.channel)].push(p.rate, *cache_);
  }
  const std::int64_t after_pushes = stats.misses;
  if (options_.model_external_io && plan.is_sink) {
    cache_->access(external_out_.base + external_out_cursor_++,
                   iomodel::AccessMode::kWrite);
  }
  channel_misses_ += (after_pops - miss_before) + (after_pushes - after_state);
  io_misses_ += (after_in - after_pops) + (stats.misses - after_pushes);
  state_misses_ += after_state - after_in;

  ++fired_[static_cast<std::size_t>(v)];
  ++total_firings_;
  if (plan.is_source) {
    ++source_firings_;
    if (options_.credit_input && input_credit_ != kUnlimitedCredit) --input_credit_;
  }
  if (plan.is_sink) ++sink_firings_;
  if (options_.per_node_attribution) {
    node_miss_base_[static_cast<std::size_t>(v)] += stats.misses - miss_before;
  }
  CCS_AUDIT_BLOCK(if ((++audit_tick_ & 63) == 0) audit_invariants(););
}

RunResult Engine::delta_counters() const {
  RunResult result;
  const iomodel::CacheStats& now = cache_->stats();
  result.cache.accesses = now.accesses - last_stats_.accesses;
  result.cache.hits = now.hits - last_stats_.hits;
  result.cache.misses = now.misses - last_stats_.misses;
  result.cache.writebacks = now.writebacks - last_stats_.writebacks;
  result.firings = total_firings_ - last_firings_;
  result.source_firings = source_firings_ - last_source_firings_;
  result.sink_firings = sink_firings_ - last_sink_firings_;
  result.state_misses = state_misses_ - last_state_misses_;
  result.channel_misses = channel_misses_ - last_channel_misses_;
  result.io_misses = io_misses_ - last_io_misses_;
  if (options_.per_node_attribution) result.node_misses = node_miss_base_;
  return result;
}

void Engine::advance_baselines() {
  last_stats_ = cache_->stats();
  last_firings_ = total_firings_;
  last_source_firings_ = source_firings_;
  last_sink_firings_ = sink_firings_;
  last_state_misses_ = state_misses_;
  last_channel_misses_ = channel_misses_;
  last_io_misses_ = io_misses_;
  node_miss_base_.assign(node_miss_base_.size(), 0);
}

void Engine::audit_invariants() const {
  // Channel plane: token counts must stay inside [0, capacity]; anything
  // else means a firing moved tokens past the feasibility check.
  for (const Channel& c : channels_) {
    CCS_CHECK(c.size() >= 0, "channel token count went negative");
    CCS_CHECK(c.size() <= c.capacity(), "channel holds more tokens than its capacity");
  }
  // Credit plane: consuming credit below zero means a source firing slipped
  // past the metering gate (can_fire/try_fire/program_fits/replay_program).
  CCS_CHECK(input_credit_ >= 0 || input_credit_ == kUnlimitedCredit,
            "external input credit went negative");
  // Firing-plan plane: every plan's port spans must be well-formed windows
  // into the flattened port arrays, and every port must name a real channel
  // with a positive rate -- fire_unchecked indexes through these with no
  // bounds checks of its own.
  const auto in_count = static_cast<std::int32_t>(layout_->in_ports().size());
  const auto out_count = static_cast<std::int32_t>(layout_->out_ports().size());
  for (const FiringPlan& plan : layout_->plans()) {
    CCS_CHECK(plan.in_begin >= 0 && plan.in_begin <= plan.in_end && plan.in_end <= in_count,
              "firing plan input span outside the flattened port array");
    CCS_CHECK(plan.out_begin >= 0 && plan.out_begin <= plan.out_end &&
                  plan.out_end <= out_count,
              "firing plan output span outside the flattened port array");
    CCS_CHECK(plan.state.words >= 0, "firing plan names a negative-size state region");
  }
  const auto channel_count = static_cast<std::int32_t>(channels_.size());
  for (const Port& p : layout_->in_ports()) {
    CCS_CHECK(p.channel >= 0 && p.channel < channel_count,
              "input port names a channel outside the engine");
    CCS_CHECK(p.rate > 0, "input port rate must be positive");
  }
  for (const Port& p : layout_->out_ports()) {
    CCS_CHECK(p.channel >= 0 && p.channel < channel_count,
              "output port names a channel outside the engine");
    CCS_CHECK(p.rate > 0, "output port rate must be positive");
  }
  // Counter plane: classified misses and per-kind firing tallies can never
  // exceed the totals they partition.
  CCS_CHECK(total_firings_ >= source_firings_ && total_firings_ >= sink_firings_,
            "per-kind firing tally exceeds the total firing count");
  CCS_CHECK(state_misses_ >= 0 && channel_misses_ >= 0 && io_misses_ >= 0,
            "classified miss counter went negative");
}

RunResult Engine::snapshot() const { return delta_counters(); }

FootprintSample Engine::footprint_sample() const noexcept {
  FootprintSample sample;
  sample.layout_words = layout_span().words;
  sample.state_words = layout_->state_words();
  sample.accesses = cache_->stats().accesses;
  sample.misses = cache_->stats().misses;
  return sample;
}

RunResult Engine::take() {
  CCS_AUDIT_BLOCK(audit_invariants(););
  RunResult result = delta_counters();
  advance_baselines();
  return result;
}

RunResult Engine::run(const schedule::FiringProgram& program) {
  CCS_EXPECTS(program.repeat >= 0, "negative program repeat");
  // The compact check settles every feasible program; one it rejects is
  // replayed firing by firing, which throws the first offending firing's
  // error.
  if (!program_fits(program)) replay_program(program);
  program.for_each([this](sdf::NodeId v) { fire_unchecked(v); });
  return take();
}

bool Engine::drained() const {
  return std::all_of(channels_.begin(), channels_.end(),
                     [](const Channel& c) { return c.empty(); });
}

void Engine::reset_tokens() {
  for (Channel& c : channels_) c.reset();
  fired_.assign(fired_.size(), 0);
}

void Engine::rebind_cache(iomodel::CacheSim& cache) {
  CCS_EXPECTS(cache.config().block_words == cache_->config().block_words,
              "rebind requires the same block size (the memory layout depends on it)");
  cache_ = &cache;
  reset_tokens();
  input_credit_ = 0;
  external_in_cursor_ = 0;
  external_out_cursor_ = 0;
  source_firings_ = 0;
  sink_firings_ = 0;
  total_firings_ = 0;
  last_firings_ = 0;
  last_source_firings_ = 0;
  last_sink_firings_ = 0;
  state_misses_ = 0;
  channel_misses_ = 0;
  io_misses_ = 0;
  last_state_misses_ = 0;
  last_channel_misses_ = 0;
  last_io_misses_ = 0;
  node_miss_base_.assign(node_miss_base_.size(), 0);
  last_stats_ = cache.stats();
}

EngineState Engine::save_state() const {
  // Quiescence check: all engine-local deltas must have been taken, or the
  // re-anchored baselines on restore would silently swallow them. (Cache
  // deltas are NOT checked -- on a shared cache other tenants' traffic
  // shows up there, and resync_cache_baseline handles it per window.)
  CCS_EXPECTS(total_firings_ == last_firings_ && state_misses_ == last_state_misses_ &&
                  channel_misses_ == last_channel_misses_ && io_misses_ == last_io_misses_,
              "save_state requires a quiescent engine (take() the pending counters first)");
  EngineState s;
  s.channel_heads.reserve(channels_.size());
  s.channel_sizes.reserve(channels_.size());
  for (const Channel& c : channels_) {
    s.channel_heads.push_back(c.head());
    s.channel_sizes.push_back(c.size());
  }
  s.fired = fired_;
  s.input_credit = input_credit_;
  s.external_in_cursor = external_in_cursor_;
  s.external_out_cursor = external_out_cursor_;
  s.source_firings = source_firings_;
  s.sink_firings = sink_firings_;
  s.total_firings = total_firings_;
  s.state_misses = state_misses_;
  s.channel_misses = channel_misses_;
  s.io_misses = io_misses_;
  return s;
}

void Engine::restore_state(const EngineState& state) {
  if (state.channel_heads.size() != channels_.size() ||
      state.channel_sizes.size() != channels_.size() ||
      state.fired.size() != fired_.size()) {
    throw ScheduleError(
        "engine state shape mismatch: saved for a different graph or buffer "
        "assignment");
  }
  for (std::size_t e = 0; e < channels_.size(); ++e) {
    channels_[e].restore(state.channel_heads[e], state.channel_sizes[e]);
  }
  fired_ = state.fired;
  input_credit_ = state.input_credit;
  external_in_cursor_ = state.external_in_cursor;
  external_out_cursor_ = state.external_out_cursor;
  source_firings_ = state.source_firings;
  sink_firings_ = state.sink_firings;
  total_firings_ = state.total_firings;
  state_misses_ = state.state_misses;
  channel_misses_ = state.channel_misses;
  io_misses_ = state.io_misses;
  // Re-anchor every baseline at the restored lifetime counters: the state
  // was captured quiescent, so all deltas were zero then and are zero now.
  advance_baselines();
}

void Engine::migrate_cache(iomodel::CacheSim& cache) {
  CCS_EXPECTS(cache.config().block_words == cache_->config().block_words,
              "migration requires the same block size (the memory layout depends on it)");
  cache_ = &cache;
  last_stats_ = cache.stats();
}

}  // namespace ccs::runtime
