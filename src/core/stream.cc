#include "core/stream.h"

#include <algorithm>
#include <utility>

#include "util/contract.h"

namespace ccs::core {

class Stream::EngineBackedView final : public schedule::EngineView {
 public:
  explicit EngineBackedView(const runtime::Engine& engine) : engine_(&engine) {}

  std::int64_t tokens(sdf::EdgeId e) const override { return engine_->tokens(e); }
  std::int64_t capacity(sdf::EdgeId e) const override {
    return engine_->tokens(e) + engine_->space(e);
  }
  std::int64_t fired(sdf::NodeId v) const override { return engine_->fired(v); }
  std::int64_t input_credit() const override { return engine_->input_credit(); }

 private:
  const runtime::Engine* engine_;
};

StreamPlan::StreamPlan(const sdf::SdfGraph& g, const partition::Partition& p,
                       std::int64_t m, std::int64_t block_words, StreamOptions opts,
                       const schedule::OnlineRegistry* registry)
    : graph(g), options(std::move(opts)) {
  CCS_EXPECTS(options.max_pending_inputs >= 0, "negative backpressure bound");
  const schedule::OnlineRegistry& reg =
      registry != nullptr ? *registry : schedule::OnlineRegistry::global();
  schedule::OnlineContext ctx;
  ctx.m = m;
  policy = reg.build(options.policy, graph, p, ctx);
  options.engine.credit_input = true;  // a Stream is always metered
  layout = std::make_shared<const runtime::EngineLayout>(
      graph, policy->buffer_caps(), block_words, options.engine.block_align_buffers);
}

Stream::Stream(std::shared_ptr<const StreamPlan> plan, std::unique_ptr<iomodel::CacheSim> owned,
               iomodel::CacheSim* shared)
    : plan_(std::move(plan)),
      owned_cache_(std::move(owned)),
      cache_(owned_cache_ != nullptr ? owned_cache_.get() : shared) {
  CCS_EXPECTS(plan_ != nullptr, "a stream needs a plan");
  engine_ = std::make_unique<runtime::Engine>(plan_->layout, *cache_, plan_->options.engine);
  view_ = std::make_unique<EngineBackedView>(*engine_);
}

Stream::Stream(std::shared_ptr<const StreamPlan> plan, iomodel::CacheSim& cache)
    : Stream(std::move(plan), nullptr, &cache) {}

Stream::Stream(const sdf::SdfGraph& g, const partition::Partition& p,
               const iomodel::CacheConfig& cache, StreamOptions options,
               const schedule::OnlineRegistry* registry)
    : Stream((validate_cache_geometry(cache),
              std::make_shared<const StreamPlan>(g, p, cache.capacity_words,
                                                 cache.block_words, std::move(options),
                                                 registry)),
             std::make_unique<iomodel::LruCache>(cache), nullptr) {}

Stream::Stream(const sdf::SdfGraph& g, const partition::Partition& p,
               iomodel::CacheSim& cache, std::int64_t m, StreamOptions options,
               const schedule::OnlineRegistry* registry)
    : Stream(std::make_shared<const StreamPlan>(g, p, m, cache.config().block_words,
                                                std::move(options), registry),
             cache) {}

Stream::Stream(const Planner& planner, const Plan& plan, StreamOptions options)
    : Stream(planner.graph(), plan.partition, planner.options().cache,
             std::move(options)) {}

Stream::~Stream() = default;

std::int64_t Stream::push(std::int64_t items) {
  CCS_EXPECTS(items >= 0, "cannot push a negative number of items");
  std::int64_t accepted = items;
  const std::int64_t bound = plan_->options.max_pending_inputs;
  if (bound > 0) {
    accepted = std::min(accepted, std::max<std::int64_t>(0, bound - pending_inputs()));
  }
  engine_->push_input(accepted);
  return accepted;
}

StepResult Stream::step() {
  StepResult result;
  schedule::StepPlan plan = plan_->policy->next_step(*view_);
  if (plan.idle()) return result;
  result.component = plan.component;
  // On a shared cache another tenant may have run since our last step; its
  // traffic must not be attributed to this session's delta window.
  engine_->resync_cache_baseline();
  result.run = engine_->run(plan.program);
  if (cost_model_ != nullptr) {
    // Price the step's own delta window and record it as one latency
    // sample; totals_ then accumulates both through RunResult::operator+=.
    result.run.cost = cost_model_->step_cost(result.run.firings, result.run.cache);
    result.run.latency.record(result.run.cost);
  }
  totals_ += result.run;
  ++steps_;
  return result;
}

runtime::RunResult Stream::run_until_idle() {
  runtime::RunResult total;
  for (StepResult r = step(); r.progressed(); r = step()) total += r.run;
  return total;
}

runtime::RunResult Stream::drain() {
  const schedule::FiringProgram plan = plan_->policy->plan_drain(*view_);
  engine_->resync_cache_baseline();
  runtime::RunResult result = engine_->run(plan);
  if (cost_model_ != nullptr) {
    // Priced so drain work advances a worker's virtual clock, but NOT
    // recorded as a histogram sample -- a terminal flush is not a serving
    // step, and one giant sample would distort the tail percentiles.
    result.cost = cost_model_->step_cost(result.firings, result.cache);
  }
  totals_ += result;
  return result;
}

void Stream::migrate_cache(iomodel::CacheSim& cache) {
  CCS_EXPECTS(owned_cache_ == nullptr,
              "cannot migrate a session that owns its cache (standalone streams "
              "are single-placement by construction)");
  engine_->migrate_cache(cache);
  cache_ = &cache;
}

StreamState Stream::save_state() const {
  StreamState state;
  state.engine = engine_->save_state();
  state.totals = totals_;
  state.steps = steps_;
  return state;
}

void Stream::restore_state(const StreamState& state) {
  engine_->restore_state(state.engine);
  totals_ = state.totals;
  steps_ = state.steps;
}

runtime::FootprintSample Stream::footprint_sample() const noexcept {
  runtime::FootprintSample sample = engine_->footprint_sample();
  sample.accesses = totals_.cache.accesses;
  sample.misses = totals_.cache.misses;
  return sample;
}

std::int64_t Stream::inputs_consumed() const { return engine_->fired(plan_->policy->source()); }

std::int64_t Stream::outputs_produced() const { return engine_->fired(plan_->policy->sink()); }

}  // namespace ccs::core
