#ifndef LSMLAB_UTIL_THREAD_STRIPE_H_
#define LSMLAB_UTIL_THREAD_STRIPE_H_

#include <cstddef>

namespace lsmlab {

/// Stripe count of every per-thread-striped structure (the ShardEngine's
/// read-view stripes, StripedCounter). A constant, not a knob: it only has
/// to exceed the number of cores that read at once for threads to stop
/// sharing cache lines, and each stripe costs one cache line per structure.
constexpr size_t kThreadStripes = 16;

/// Padding that keeps two stripes off one cache line.
constexpr size_t kCacheLineSize = 64;

namespace thread_stripe_internal {
/// Hands out stripes round-robin across threads.
size_t AssignStripe();
/// kThreadStripes until the thread first asks for its stripe.
inline thread_local size_t this_thread_stripe = kThreadStripes;
}  // namespace thread_stripe_internal

/// The calling thread's stripe in [0, kThreadStripes). Assigned round-robin
/// on the thread's first call and fixed for its lifetime, so up to
/// kThreadStripes concurrent threads each get a stripe of their own.
inline size_t ThisThreadStripe() {
  size_t stripe = thread_stripe_internal::this_thread_stripe;
  if (stripe == kThreadStripes) [[unlikely]] {
    stripe = thread_stripe_internal::AssignStripe();
    thread_stripe_internal::this_thread_stripe = stripe;
  }
  return stripe;
}

}  // namespace lsmlab

#endif  // LSMLAB_UTIL_THREAD_STRIPE_H_
