#include "schedule/schedule.h"

#include "util/contract.h"
#include "util/int_math.h"

namespace ccs::schedule {

std::int64_t periods_for_outputs(const Schedule& s, std::int64_t target_outputs) {
  CCS_EXPECTS(s.outputs_per_period > 0, "schedule produces no outputs per period");
  CCS_EXPECTS(target_outputs >= 0, "negative output target");
  return ceil_div(target_outputs, s.outputs_per_period);
}

}  // namespace ccs::schedule
