#include "util/thread_stripe.h"

#include <atomic>

namespace lsmlab {
namespace thread_stripe_internal {

size_t AssignStripe() {
  static std::atomic<size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kThreadStripes;
}

}  // namespace thread_stripe_internal
}  // namespace lsmlab
