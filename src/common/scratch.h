// Reusing a result object across calls without reallocating its per-op
// vector. An internal caller that runs the same pipeline stage once per
// request (RouteBatch, ReadBatch, WriteBatch, UdrNf's verb path) keeps one
// result as scratch; each call resets it through this helper, so a one-op
// call costs no outcome-vector allocation.

#ifndef UDR_COMMON_SCRATCH_H_
#define UDR_COMMON_SCRATCH_H_

#include <utility>
#include <vector>

namespace udr {

/// Resets `*result` to a default-constructed T, except that its vector
/// member `field` is emptied in place and keeps its capacity. Returns that
/// vector for the caller to size.
template <typename T, typename Elem>
std::vector<Elem>& ResetKeepingCapacity(T* result,
                                        std::vector<Elem> T::*field) {
  std::vector<Elem> kept = std::move(result->*field);
  kept.clear();
  *result = T();
  result->*field = std::move(kept);
  return result->*field;
}

}  // namespace udr

#endif  // UDR_COMMON_SCRATCH_H_
