#include "schedule/program.h"

#include <algorithm>
#include <limits>

#include "util/contract.h"
#include "util/int_math.h"

namespace ccs::schedule {

FiringProgram FiringProgram::encode(std::span<const sdf::NodeId> firings) {
  FiringProgram out;
  for (const sdf::NodeId v : firings) out.append(v);
  return out;
}

void FiringProgram::append(sdf::NodeId v, std::int64_t count) {
  CCS_EXPECTS(count >= 0, "negative firing count");
  constexpr std::int64_t kMaxRun = std::numeric_limits<std::int32_t>::max();
  while (count > 0) {
    if (runs.empty() || runs.back().node != v || runs.back().count == kMaxRun) {
      runs.push_back(FiringRun{v, 0});
    }
    FiringRun& last = runs.back();
    const std::int64_t take = std::min(count, kMaxRun - last.count);
    last.count += static_cast<std::int32_t>(take);
    count -= take;
  }
}

std::int64_t FiringProgram::total_firings() const {
  std::int64_t period = 0;
  for (const FiringRun& run : runs) period += std::max<std::int32_t>(run.count, 0);
  return checked_mul(period, repeat);
}

std::vector<sdf::NodeId> FiringProgram::expand() const {
  std::vector<sdf::NodeId> out;
  out.reserve(static_cast<std::size_t>(total_firings()));
  for_each([&out](sdf::NodeId v) { out.push_back(v); });
  return out;
}

}  // namespace ccs::schedule
