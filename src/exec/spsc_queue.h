// Bounded lock-free single-producer/single-consumer ring buffer: the handoff
// queue at the PoA boundary of the sharded execution mode. The driver thread
// (producer) routes each batch to the shard owning its subscribers and pushes
// it here; the shard's worker thread (consumer) pops and executes. One
// producer and one consumer only — that restriction is what lets the ring run
// on two atomic indices with no locks, and it encodes the shard-confinement
// invariant: batches never cross shards except through an explicit handoff.
//
// Concurrency contract (no mutex, so no GUARDED_BY — the discipline is
// role-based and checked two ways):
//   * TryPush() may only ever be called by ONE thread (the producer role),
//     TryPop() only ever by ONE thread (the consumer role). Each side is a
//     common::ThreadOwner (thread_owner.h): it binds to the first thread
//     that calls it, and under UDR_DEADLOCK_CHECK (debug/sanitizer builds)
//     a call from any other thread aborts with a diagnostic — the static
//     analog of the TSan race the violation would eventually cause.
//   * slots_[i] is published producer->consumer by the release store of
//     tail_ and the consumer's acquire load of it; head_ symmetrically
//     returns slot ownership consumer->producer. SizeApprox() is a racy
//     monitoring estimate, callable from anywhere.
//   * Each side keeps a private copy of the other side's cursor (head_cache_
//     on the producer, tail_cache_ on the consumer) and reloads the shared
//     one only when the ring looks full or empty, so a push or pop touches
//     the other side's cache line only then. A failed TryPush or TryPop has
//     always read the other cursor afresh.
//   * TryPop swaps the slot with `*out`: the consumer's previous value stays
//     in the slot until the producer's next TryPush there move-assigns over
//     it. So whatever the producer allocated is freed on the producer's
//     thread, never on the consumer's (no cross-thread frees into the
//     producer's allocator arena). The ring keeps up to capacity() such
//     spent values alive.

#ifndef UDR_EXEC_SPSC_QUEUE_H_
#define UDR_EXEC_SPSC_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/attributes.h"
#include "common/thread_owner.h"

namespace udr::exec {

template <typename T>
class SpscQueue {
 public:
  /// Capacity is rounded up to a power of two (index masking).
  explicit SpscQueue(size_t capacity) {
    size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Producer side. Returns false when the ring is full. Single producer:
  /// the first calling thread owns this side for the queue's lifetime.
  bool TryPush(T&& value) {
    producer_.Check();
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ > mask_) return false;
    }
    slots_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false when the ring is empty. On success `*out`
  /// holds the popped value and the slot holds `*out`'s previous one (see
  /// the swap contract above). Single consumer: the first calling thread
  /// owns this side for the queue's lifetime.
  bool TryPop(T* out) {
    consumer_.Check();
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    using std::swap;
    swap(*out, slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Racy size estimate, any thread. Both cursors are read afresh, so on
  /// the consumer's thread 0 means the ring was empty when tail_ was read
  /// (ShardRuntime decides to park on that).
  size_t SizeApprox() const {
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    const uint64_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? static_cast<size_t>(tail - head) : 0;
  }

  size_t capacity() const { return mask_ + 1; }

 private:
  std::vector<T> slots_;
  size_t mask_ = 0;
  // One cache line per side: the side's own cursor and its copy of the
  // other's.
  alignas(64) std::atomic<uint64_t> head_{0};  ///< Consumer cursor.
  uint64_t tail_cache_ = 0;  ///< Consumer only: tail_ as last read.
  alignas(64) std::atomic<uint64_t> tail_{0};  ///< Producer cursor.
  uint64_t head_cache_ = 0;  ///< Producer only: head_ as last read.
  UDR_NO_UNIQUE_ADDRESS common::ThreadOwner producer_{
      "SpscQueue producer (TryPush)"};
  UDR_NO_UNIQUE_ADDRESS common::ThreadOwner consumer_{
      "SpscQueue consumer (TryPop)"};
};

}  // namespace udr::exec

#endif  // UDR_EXEC_SPSC_QUEUE_H_
