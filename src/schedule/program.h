// Compiled firing programs: the one form runtime::Engine executes.
//
// A schedule is a firing sequence, but the sequences the paper's rules emit
// are highly structured: the homogeneous M-batch rule runs a component as M
// identical passes over its members, and the pipeline rule and every drain
// fire each module in maximal batches. A FiringProgram keeps that structure
// instead of materializing it: one period of `(node, count)` runs, executed
// in order, the whole period `repeat` times. The M-batch rule's step is
// `members x 1, repeat M` -- O(members) to build and to validate instead of
// O(M * members) -- and a batch plan is one run per batch.
//
// Arbitrary sequences (static schedules, tests) are run-length encoded with
// encode(); expand() and for_each() give the firing-by-firing view back, so
// a program and the sequence it encodes are interchangeable everywhere.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sdf/graph.h"

namespace ccs::schedule {

/// `count` back-to-back firings of one module.
struct FiringRun {
  sdf::NodeId node = sdf::kInvalidNode;
  std::int32_t count = 0;  ///< >= 1 when built through append(); <= 0 fires nothing.

  friend bool operator==(const FiringRun&, const FiringRun&) = default;
};

/// One period of runs, executed `repeat` times.
struct FiringProgram {
  std::vector<FiringRun> runs;  ///< One period, in execution order.
  std::int64_t repeat = 1;      ///< Times the period executes (>= 0).

  /// Run-length encodes a firing sequence as a single period (repeat 1).
  static FiringProgram encode(std::span<const sdf::NodeId> firings);

  /// Appends `count` (>= 0) firings of v to the period, extending the last
  /// run when it fires v too; a count beyond one run's range is split.
  void append(sdf::NodeId v, std::int64_t count = 1);

  /// Firings the whole program executes (firings per period * repeat).
  std::int64_t total_firings() const;

  /// True iff the program executes no firing.
  bool empty() const noexcept { return runs.empty() || repeat == 0; }

  /// Calls f(v) once per firing, in execution order.
  template <class F>
  void for_each(F&& f) const {
    for (std::int64_t r = 0; r < repeat; ++r) {
      for (const FiringRun& run : runs) {
        for (std::int32_t k = 0; k < run.count; ++k) f(run.node);
      }
    }
  }

  /// The materialized firing sequence.
  std::vector<sdf::NodeId> expand() const;

  friend bool operator==(const FiringProgram&, const FiringProgram&) = default;
};

}  // namespace ccs::schedule
