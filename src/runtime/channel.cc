#include "runtime/channel.h"

#include "util/contract.h"
#include "util/error.h"

namespace ccs::runtime {

Channel::Channel(iomodel::Region region, std::int64_t capacity)
    : region_(region), capacity_(capacity) {
  CCS_EXPECTS(capacity >= 1, "channel capacity must be positive");
  CCS_EXPECTS(region.words == capacity, "region must have one word per slot");
}

void Channel::throw_overflow(std::int64_t count) const {
  throw ScheduleError("channel overflow: pushing " + std::to_string(count) + " into " +
                      std::to_string(space()) + " free slots");
}

void Channel::throw_underflow(std::int64_t count) const {
  throw ScheduleError("channel underflow: popping " + std::to_string(count) + " of " +
                      std::to_string(size_) + " tokens");
}

void Channel::restore(std::int64_t head, std::int64_t size) {
  CCS_EXPECTS(head >= 0 && head < capacity_, "restored head out of range");
  CCS_EXPECTS(size >= 0 && size <= capacity_, "restored size exceeds capacity");
  head_ = head;
  size_ = size;
}

}  // namespace ccs::runtime
