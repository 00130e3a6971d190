// HandleTable: a map from uint64 handles to values for the enqueue/take
// path (the PoA dispatch window's outcomes and the event pipeline's
// ledger). Their handles are issued in increasing order and mostly taken in
// about that order, so the entries live in one ring buffer sorted by
// handle: a Put of a new largest handle appends, a Find of a dense run is
// one subtraction, any other Find is a binary search, and an Erase at the
// front pops it. An erased entry in the middle stays as a dead slot until
// everything before it is gone. No node is allocated per entry; the ring
// only reallocates when the number of in-flight handles outgrows it.

#ifndef UDR_COMMON_HANDLE_TABLE_H_
#define UDR_COMMON_HANDLE_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace udr {

template <typename T>
class HandleTable {
 public:
  /// Stores `value` under `handle`, replacing any live value there.
  /// Handles larger than every stored one take the append fast path.
  void Put(uint64_t handle, T value) {
    size_t k = count_;
    if (count_ > 0 && handle <= At(count_ - 1).handle) {
      k = LowerBound(handle);
      if (At(k).handle == handle) {
        Store(&At(k), std::move(value));
        return;
      }
    }
    // Append, or insert out of order by shifting the tail one slot back.
    if (count_ == ring_.size()) Grow();
    for (size_t j = count_; j > k; --j) At(j) = std::move(At(j - 1));
    ++count_;
    Slot& s = At(k);
    s.handle = handle;
    s.live = false;
    Store(&s, std::move(value));
  }

  /// The live value under `handle`; nullptr when absent.
  T* Find(uint64_t handle) {
    const size_t k = Position(handle);
    return k == count_ ? nullptr : &At(k).value;
  }

  /// Removes the value under `handle`, releasing what it holds; false when
  /// there was none.
  bool Erase(uint64_t handle) {
    const size_t k = Position(handle);
    if (k == count_) return false;
    Slot& s = At(k);
    s.live = false;
    s.value = T();
    --live_;
    while (count_ > 0 && !At(0).live) {
      head_ = (head_ + 1) & (ring_.size() - 1);
      --count_;
    }
    return true;
  }

  /// Live entries.
  size_t size() const { return live_; }

 private:
  struct Slot {
    T value{};
    uint64_t handle = 0;
    bool live = false;
  };

  Slot& At(size_t k) { return ring_[(head_ + k) & (ring_.size() - 1)]; }
  const Slot& At(size_t k) const {
    return ring_[(head_ + k) & (ring_.size() - 1)];
  }

  void Store(Slot* s, T value) {
    s->value = std::move(value);
    if (!s->live) ++live_;
    s->live = true;
  }

  /// Position of the live slot holding `handle`, or count_ when none.
  size_t Position(uint64_t handle) const {
    if (count_ == 0) return count_;
    const uint64_t front = At(0).handle;
    size_t k = 0;
    if (handle >= front && handle - front < count_ &&
        At(handle - front).handle == handle) {
      k = handle - front;  // Dense run: every handle since the front.
    } else {
      k = LowerBound(handle);
      if (k == count_ || At(k).handle != handle) return count_;
    }
    return At(k).live ? k : count_;
  }

  /// First position whose handle is >= `handle`.
  size_t LowerBound(uint64_t handle) const {
    size_t lo = 0;
    size_t hi = count_;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (At(mid).handle < handle) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Doubles the ring (power-of-two sized), keeping the order.
  void Grow() {
    std::vector<Slot> bigger(ring_.empty() ? 8 : ring_.size() * 2);
    for (size_t k = 0; k < count_; ++k) bigger[k] = std::move(At(k));
    ring_.swap(bigger);
    head_ = 0;
  }

  std::vector<Slot> ring_;  ///< Power-of-two sized ring, sorted by handle.
  size_t head_ = 0;         ///< Ring index of the front slot.
  size_t count_ = 0;        ///< Slots in use, dead ones included.
  size_t live_ = 0;
};

}  // namespace udr

#endif  // UDR_COMMON_HANDLE_TABLE_H_
