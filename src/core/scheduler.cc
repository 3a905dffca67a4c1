#include "core/scheduler.h"

#include "iomodel/cache.h"
#include "util/contract.h"

namespace ccs::core {

Plan plan(const sdf::SdfGraph& g, const PlannerOptions& options) {
  return Planner(g, options).plan();
}

runtime::RunResult simulate(const sdf::SdfGraph& g, const schedule::Schedule& s,
                            const iomodel::CacheConfig& cache_config,
                            std::int64_t target_outputs,
                            runtime::EngineOptions engine_options) {
  validate_cache_geometry(cache_config);
  CCS_EXPECTS(target_outputs > 0, "output target must be positive");
  iomodel::LruCache cache(cache_config);
  runtime::Engine engine(g, s.buffer_caps, cache, engine_options);
  // The rounds are one program: the period encoded once, repeated.
  schedule::FiringProgram program = schedule::FiringProgram::encode(s.period);
  program.repeat = schedule::periods_for_outputs(s, target_outputs);
  return engine.run(program);
}

}  // namespace ccs::core
