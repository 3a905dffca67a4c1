// Property tests for Engine::run's compiled-program validation.
//
// run(program) proves a program feasible from one period's excursions (net
// delta and prefix extremes per channel, checked at the first and last
// repeat, plus the credit total) instead of replaying every firing. The
// reference is the per-firing rule itself: a twin engine restored to the
// same state fires the expanded program one fire() at a time. For every
// program -- random ones over random pipelines and homogeneous dags, and
// targeted infeasible ones -- the two must agree on acceptance; on
// rejection the thrown message must be byte-identical and the engine's
// saved state unchanged (no firing executed), and on acceptance both must
// end in the same token state.

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "iomodel/cache.h"
#include "runtime/engine.h"
#include "schedule/program.h"
#include "sdf/min_buffer.h"
#include "util/error.h"
#include "util/rng.h"
#include "workloads/pipelines.h"
#include "workloads/random_dag.h"

namespace ccs::runtime {
namespace {

using iomodel::CacheConfig;
using iomodel::LruCache;
using schedule::FiringProgram;
using sdf::NodeId;
using sdf::SdfGraph;

const CacheConfig kCache{512, 8};

/// Outcome of one validation: nullopt = accepted, else the ScheduleError
/// text, or "contract violation" (whose text names a source line).
using Outcome = std::optional<std::string>;

/// The per-firing reference: restore `state` into a fresh engine and fire
/// the expanded program one firing at a time.
Outcome reference(const SdfGraph& g, const std::vector<std::int64_t>& caps,
                  const EngineOptions& opts, const EngineState& state,
                  const FiringProgram& program, EngineState* end_state) {
  LruCache cache(kCache);
  Engine twin(g, caps, cache, opts);
  twin.restore_state(state);
  try {
    program.for_each([&](NodeId v) { twin.fire(v); });
  } catch (const ScheduleError& e) {
    return std::string("schedule: ") + e.what();
  } catch (const ContractViolation&) {
    return std::string("contract violation");
  }
  (void)twin.take();
  *end_state = twin.save_state();
  return std::nullopt;
}

/// Runs `program` on `engine` and checks it against the reference. Returns
/// whether the program was accepted.
bool check_against_reference(const SdfGraph& g, const std::vector<std::int64_t>& caps,
                             const EngineOptions& opts, Engine& engine,
                             const FiringProgram& program, const std::string& tag) {
  const EngineState before = engine.save_state();
  EngineState want_end;
  const Outcome want = reference(g, caps, opts, before, program, &want_end);
  Outcome got;
  try {
    (void)engine.run(program);
  } catch (const ScheduleError& e) {
    got = std::string("schedule: ") + e.what();
  } catch (const ContractViolation&) {
    got = std::string("contract violation");
  }
  EXPECT_EQ(got.has_value(), want.has_value()) << tag << " (reference: "
                                               << want.value_or("accepted") << ")";
  if (got.has_value() && want.has_value()) {
    EXPECT_EQ(*got, *want) << tag;
    EXPECT_EQ(engine.save_state(), before) << tag << ": a rejected program changed state";
  }
  if (!got.has_value() && !want.has_value()) {
    const EngineState end = engine.save_state();
    EXPECT_EQ(end.channel_sizes, want_end.channel_sizes) << tag;
    EXPECT_EQ(end.channel_heads, want_end.channel_heads) << tag;
    EXPECT_EQ(end.fired, want_end.fired) << tag;
    EXPECT_EQ(end.input_credit, want_end.input_credit) << tag;
  }
  return !want.has_value();
}

/// A random period: `len` runs of random nodes with counts in [1, 4].
FiringProgram random_program(const SdfGraph& g, Rng& rng) {
  FiringProgram p;
  const std::int64_t len = rng.uniform(1, 8);
  for (std::int64_t i = 0; i < len; ++i) {
    p.append(static_cast<NodeId>(rng.uniform(0, g.node_count() - 1)), rng.uniform(1, 4));
  }
  p.repeat = rng.uniform(1, 6);
  return p;
}

/// A period built by token-level simulation from the engine's current
/// state, so it is feasible at least once; repeats may or may not be.
FiringProgram simulated_program(const SdfGraph& g, const std::vector<std::int64_t>& caps,
                                const Engine& engine, Rng& rng) {
  std::vector<std::int64_t> tokens(caps.size());
  for (sdf::EdgeId e = 0; e < g.edge_count(); ++e) {
    tokens[static_cast<std::size_t>(e)] = engine.tokens(e);
  }
  FiringProgram p;
  const std::int64_t len = rng.uniform(1, 12);
  for (std::int64_t i = 0; i < len; ++i) {
    const auto v = static_cast<NodeId>(rng.uniform(0, g.node_count() - 1));
    std::int64_t batch = 4;
    for (const sdf::EdgeId e : g.in_edges(v)) {
      batch = std::min(batch, tokens[static_cast<std::size_t>(e)] / g.edge(e).in_rate);
    }
    for (const sdf::EdgeId e : g.out_edges(v)) {
      batch = std::min(batch, (caps[static_cast<std::size_t>(e)] -
                               tokens[static_cast<std::size_t>(e)]) / g.edge(e).out_rate);
    }
    if (batch <= 0) continue;
    const std::int64_t count = rng.uniform(1, batch);
    for (const sdf::EdgeId e : g.in_edges(v)) {
      tokens[static_cast<std::size_t>(e)] -= count * g.edge(e).in_rate;
    }
    for (const sdf::EdgeId e : g.out_edges(v)) {
      tokens[static_cast<std::size_t>(e)] += count * g.edge(e).out_rate;
    }
    p.append(v, count);
  }
  p.repeat = rng.uniform(1, 5);
  return p;
}

/// Random programs against engines in random reachable states, with and
/// without metered input.
void fuzz_graph(const SdfGraph& g, std::vector<std::int64_t> caps, Rng& rng,
                const std::string& name, std::int64_t* accepted, std::int64_t* rejected) {
  for (int trial = 0; trial < 60; ++trial) {
    EngineOptions opts;
    opts.credit_input = rng.bernoulli(0.5);
    LruCache cache(kCache);
    Engine engine(g, caps, cache, opts);
    if (opts.credit_input) engine.push_input(rng.uniform(0, 12));
    // Walk to a random reachable state.
    const std::int64_t warm = rng.uniform(0, 40);
    for (std::int64_t i = 0; i < warm; ++i) {
      (void)engine.try_fire(static_cast<NodeId>(rng.uniform(0, g.node_count() - 1)));
    }
    (void)engine.take();
    for (int round = 0; round < 6; ++round) {
      const FiringProgram program =
          rng.bernoulli(0.5) ? random_program(g, rng) : simulated_program(g, caps, engine, rng);
      const bool ok = check_against_reference(
          g, caps, opts, engine, program,
          name + " trial " + std::to_string(trial) + " round " + std::to_string(round));
      ++(ok ? *accepted : *rejected);
    }
  }
}

TEST(ProgramValidation, RandomProgramsMatchPerFiringReplay) {
  Rng rng(1414);
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;
  for (int i = 0; i < 4; ++i) {
    Rng trial = rng.fork();
    const SdfGraph pipe = workloads::random_pipeline(6, 8, 40, 3, trial);
    std::vector<std::int64_t> caps = sdf::feasible_buffers(pipe);
    for (auto& c : caps) c *= trial.uniform(1, 3);
    fuzz_graph(pipe, caps, trial, "pipeline " + std::to_string(i), &accepted, &rejected);

    workloads::LayeredSpec spec;
    spec.layers = 3;
    spec.width = 3;
    spec.state_lo = 8;
    spec.state_hi = 32;
    const SdfGraph dag = workloads::layered_homogeneous_dag(spec, trial);
    std::vector<std::int64_t> dag_caps(static_cast<std::size_t>(dag.edge_count()));
    for (auto& c : dag_caps) c = trial.uniform(1, 6);
    fuzz_graph(dag, dag_caps, trial, "dag " + std::to_string(i), &accepted, &rejected);
  }
  // Both outcomes must be well represented for the property to mean much.
  EXPECT_GT(accepted, 200);
  EXPECT_GT(rejected, 200);
}

/// a -(out 2, in 1)-> b -(1, 1)-> c: one period of [a, b, c] leaves one
/// extra token on a -> b, so that buffer fills a token per repeat.
struct Drifting {
  SdfGraph g;
  NodeId a, b, c;
  Drifting() {
    a = g.add_node("a", 8);
    b = g.add_node("b", 8);
    c = g.add_node("c", 8);
    g.add_edge(a, b, 2, 1);
    g.add_edge(b, c, 1, 1);
  }
};

TEST(ProgramValidation, UnderflowInTheFirstPeriod) {
  Drifting d;
  const std::vector<std::int64_t> caps{8, 2};
  LruCache cache(kCache);
  Engine engine(d.g, caps, cache);
  FiringProgram p;
  p.append(d.a);
  p.append(d.c);  // b has not fired: c underflows at once
  p.append(d.b);
  p.repeat = 3;
  EXPECT_FALSE(check_against_reference(d.g, caps, {}, engine, p, "first-period underflow"));
}

TEST(ProgramValidation, CrossBufferOverflowOnlyInTheLastRepeat) {
  Drifting d;
  const std::int64_t cap = 7;
  const std::vector<std::int64_t> caps{cap, 2};
  FiringProgram p;
  p.append(d.a);
  p.append(d.b);
  p.append(d.c);
  // Repeat j peaks at j + 2 tokens on a -> b: repeats 0 .. cap-2 fit.
  for (const std::int64_t repeat : {cap - 1, cap}) {
    LruCache cache(kCache);
    Engine engine(d.g, caps, cache);
    p.repeat = repeat;
    EXPECT_EQ(check_against_reference(d.g, caps, {}, engine, p,
                                      "repeat " + std::to_string(repeat)),
              repeat == cap - 1);
  }
  // The same bound from a partly filled buffer: one fewer repeat fits.
  LruCache cache(kCache);
  Engine engine(d.g, caps, cache);
  ASSERT_TRUE(engine.try_fire(d.a));
  ASSERT_TRUE(engine.try_fire(d.b));
  (void)engine.take();
  p.repeat = cap - 1;
  EXPECT_FALSE(check_against_reference(d.g, caps, {}, engine, p, "prefilled"));
}

TEST(ProgramValidation, CreditExhaustedMidRepeat) {
  Drifting d;
  const std::vector<std::int64_t> caps{64, 2};
  EngineOptions opts;
  opts.credit_input = true;
  FiringProgram p;
  p.append(d.a);
  p.append(d.b, 2);
  p.append(d.c, 2);
  p.append(d.a);  // two source firings per period, the second mid-period
  p.append(d.b, 2);
  p.append(d.c, 2);
  p.repeat = 4;  // 8 source firings
  for (const std::int64_t credit : {8, 7, 5, 0}) {
    LruCache cache(kCache);
    Engine engine(d.g, caps, cache, opts);
    engine.push_input(credit);
    EXPECT_EQ(check_against_reference(d.g, caps, opts, engine, p,
                                      "credit " + std::to_string(credit)),
              credit >= 8);
  }
}

TEST(ProgramValidation, OverflowingArithmeticFallsBackToTheReplay) {
  // A repeat so large that the last repeat's level overflows int64: the
  // compact check cannot decide, so the replay rejects on the first full
  // buffer.
  Drifting d;
  const std::vector<std::int64_t> caps{4, 2};
  LruCache cache(kCache);
  Engine engine(d.g, caps, cache);
  FiringProgram p;
  p.append(d.a);
  p.append(d.b);
  p.append(d.c);
  p.repeat = std::numeric_limits<std::int64_t>::max();
  EXPECT_FALSE(check_against_reference(d.g, caps, {}, engine, p, "huge repeat"));
}

TEST(ProgramValidation, MBatchStepIsOnePeriodRepeated) {
  // The homogeneous M-batch shape: members x 1, repeat M, from full input
  // cross buffers -- accepted, and one more repeat underflows.
  SdfGraph g;
  const NodeId s = g.add_node("s", 8);
  const NodeId x = g.add_node("x", 8);
  const NodeId y = g.add_node("y", 8);
  const NodeId t = g.add_node("t", 8);
  g.add_edge(s, x, 1, 1);
  g.add_edge(x, y, 1, 1);
  g.add_edge(y, t, 1, 1);
  const std::int64_t m = 16;
  const std::vector<std::int64_t> caps{m, 1, m};
  LruCache cache(kCache);
  Engine engine(g, caps, cache);
  for (std::int64_t i = 0; i < m; ++i) ASSERT_TRUE(engine.try_fire(s));
  (void)engine.take();
  FiringProgram step;
  step.append(x);
  step.append(y);
  step.repeat = m + 1;
  EXPECT_FALSE(check_against_reference(g, caps, {}, engine, step, "m + 1"));
  step.repeat = m;
  EXPECT_TRUE(check_against_reference(g, caps, {}, engine, step, "m"));
  EXPECT_EQ(engine.tokens(0), 0);
  EXPECT_EQ(engine.tokens(2), m);
}

TEST(ProgramValidation, OutOfRangeNodeIsAContractViolationInSequenceOrder) {
  Drifting d;
  const std::vector<std::int64_t> caps{8, 2};
  LruCache cache(kCache);
  Engine engine(d.g, caps, cache);
  FiringProgram bad_id{{{d.a, 1}, {99, 1}}, 1};
  EXPECT_FALSE(check_against_reference(d.g, caps, {}, engine, bad_id, "bad id"));
  // An infeasible firing before the bad id is reported first.
  FiringProgram blocked_first{{{d.c, 1}, {99, 1}}, 1};
  EXPECT_THROW((void)engine.run(blocked_first), ScheduleError);
}

}  // namespace
}  // namespace ccs::runtime
