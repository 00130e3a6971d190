// Checked thread confinement: the one concurrency model of the per-shard
// objects. The storage elements of the modelled UDR share nothing, and so do
// the shards of the real-concurrency mode (src/exec/): a shard's registry,
// router heat tracker and PoA caches are built, used and destroyed on its
// worker thread, so they take no lock. Confinement is the contract instead,
// and a ThreadOwner member checks it:
//
//   * the object belongs to the first thread that makes a checked call on
//     it; every public call checks, and a call from any other thread aborts
//     with a message naming the object and both thread ids;
//   * ownership moves only across a happens-before edge (a thread join):
//     the new thread calls Rebind() once, and owns the object from then on.
//     exec::ShardRuntime::Finish() hands every joined shard to the driver
//     this way, in one place (udrnf::UdrNf::RebindToThisThread);
//   * common::Mutex is kept only where threads really meet: the
//     ShardRuntime park handoff and AttrPool's writers (the lint rule
//     mutex-holder names the files that may hold one).
//
// The check runs under UDR_DEADLOCK_CHECK (on outside Release builds, with
// the lock-order checker of mutex.h). In Release a ThreadOwner is an empty
// class whose calls compile to nothing; declare it UDR_NO_UNIQUE_ADDRESS so
// it takes no bytes either. It reads no clock.

#ifndef UDR_COMMON_THREAD_OWNER_H_
#define UDR_COMMON_THREAD_OWNER_H_

#if defined(UDR_DEADLOCK_CHECK)
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#endif

namespace udr::common {

class ThreadOwner {
 public:
#if defined(UDR_DEADLOCK_CHECK)
  /// `name` labels the object in a violation report; it must be a string
  /// literal (the owner keeps the pointer).
  explicit ThreadOwner(const char* name) : name_(name) {}

  /// Binds the owner to the calling thread on first use; aborts when a
  /// different thread owns it.
  void Check() const {
    const uint64_t me = ThisThreadId();
    uint64_t owner = owner_.load(std::memory_order_relaxed);
    if (owner == me) return;
    if (owner == 0 &&
        owner_.compare_exchange_strong(owner, me, std::memory_order_relaxed)) {
      return;
    }
    std::fprintf(stderr,
                 "[udr-owner-check] %s used from two threads: owned by "
                 "thread %llu, called from thread %llu — thread-confinement "
                 "violation\n",
                 name_, static_cast<unsigned long long>(owner),
                 static_cast<unsigned long long>(me));
    std::fflush(stderr);
    std::abort();
  }

  /// Hands the object to the calling thread. Only after a happens-before
  /// edge with the previous owner's last use (its thread was joined).
  void Rebind() { owner_.store(ThisThreadId(), std::memory_order_relaxed); }
#else
  explicit constexpr ThreadOwner(const char*) {}
  void Check() const {}
  void Rebind() {}
#endif

  ThreadOwner(const ThreadOwner&) = delete;
  ThreadOwner& operator=(const ThreadOwner&) = delete;

#if defined(UDR_DEADLOCK_CHECK)
 private:
  /// This thread's id in violation reports: 1, 2, ... in order of first
  /// use (0 is the "unbound" sentinel).
  static uint64_t ThisThreadId() {
    static std::atomic<uint64_t> next{1};
    thread_local const uint64_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
  }

  const char* name_;
  mutable std::atomic<uint64_t> owner_{0};
#endif
};

/// A handle's view of its object's owner (Metrics::Counter checks its
/// registry's): a pointer under UDR_DEADLOCK_CHECK, empty in Release.
class ThreadOwnerRef {
 public:
  ThreadOwnerRef() = default;
#if defined(UDR_DEADLOCK_CHECK)
  explicit ThreadOwnerRef(const ThreadOwner* owner) : owner_(owner) {}
  void Check() const { owner_->Check(); }

 private:
  const ThreadOwner* owner_ = nullptr;
#else
  explicit constexpr ThreadOwnerRef(const ThreadOwner*) {}
  void Check() const {}
#endif
};

}  // namespace udr::common

#endif  // UDR_COMMON_THREAD_OWNER_H_
