// The repo's annotated locking layer. Locks are the exception: per-shard
// objects are thread-confined instead (thread_owner.h), and the invariant
// linter allows a common::Mutex member only where threads really meet.
// Every lock in src/ outside this directory must be a common::Mutex (the
// linter bans raw std::mutex elsewhere), because the wrapper is what
// carries the two enforcement mechanisms:
//
//   * Clang thread-safety attributes (thread_annotations.h): a Mutex is a
//     CAPABILITY, MutexLock is a SCOPED_CAPABILITY, and every guarded member
//     names its mutex via GUARDED_BY — so `clang -Wthread-safety -Werror`
//     (CMake option UDR_WTHREAD_SAFETY) rejects unguarded access at compile
//     time.
//
//   * A debug lock-order checker (UDR_DEADLOCK_CHECK, on by default outside
//     Release builds): every acquisition feeds a process-wide lock-order
//     graph keyed by lock NAME. Acquiring B while holding A establishes the
//     edge A -> B; any later acquisition that would close a cycle (the
//     classic ABBA inversion) aborts immediately — with the acquiring
//     thread's held-lock stack AND the stack recorded when the conflicting
//     edge was first established — instead of deadlocking some unlucky run.
//     Locks are graphed by name, so two instances of the same class count as
//     one node: nesting two shards' park mutexes in both orders is flagged
//     even though a given pair deadlocks only when interleaved. Acquisitions
//     taken while no other lock is held skip the graph entirely (thread-local
//     push only), so leaf locks — the common case on the data path — stay
//     cheap.
//
// CondVar wraps std::condition_variable_any waiting on the Mutex itself, so
// the wait's internal unlock/relock flows through the same bookkeeping.

#ifndef UDR_COMMON_MUTEX_H_
#define UDR_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace udr::common {

#if defined(UDR_DEADLOCK_CHECK)
namespace lockorder {
/// Checks the process-wide lock-order graph for a cycle that acquiring
/// `name` (while holding this thread's current stack) would close, aborts
/// with both stacks on inversion, then records the new edges. Called before
/// a blocking acquire.
void OnAcquire(const char* name);
/// Records a non-blocking successful acquire (try-lock): pushes onto the
/// held stack without cycle-checking — a try-acquire cannot deadlock, so it
/// does not constrain the order graph.
void OnTryAcquire(const char* name);
/// Pops `name` from this thread's held stack.
void OnRelease(const char* name);
/// Number of locks the calling thread currently holds (tests/debugging).
int HeldCount();
}  // namespace lockorder
#endif

/// An annotated exclusive mutex. Prefer MutexLock over bare Lock()/Unlock().
class CAPABILITY("mutex") Mutex {
 public:
  /// `name` labels this lock in the lock-order graph and in inversion
  /// reports; it must be a string literal (the checker keeps the pointer).
  /// Locks of one class share a name on purpose — the order policy is
  /// per-class, not per-instance.
  explicit Mutex(const char* name = "mutex") : name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
#if defined(UDR_DEADLOCK_CHECK)
    lockorder::OnAcquire(name_);
#endif
    mu_.lock();
  }

  void Unlock() RELEASE() {
    mu_.unlock();
#if defined(UDR_DEADLOCK_CHECK)
    lockorder::OnRelease(name_);
#endif
  }

  /// Non-blocking acquire; true on success. A failed try leaves no trace in
  /// the order graph (and a successful one adds no edges — it cannot block).
  bool TryLock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
#if defined(UDR_DEADLOCK_CHECK)
    lockorder::OnTryAcquire(name_);
#endif
    return true;
  }

  const char* name() const { return name_; }

  /// BasicLockable aliases so std::condition_variable_any (CondVar below)
  /// waits through the checker's bookkeeping.
  void lock() ACQUIRE() { Lock(); }
  void unlock() RELEASE() { Unlock(); }

 private:
  std::mutex mu_;
  const char* name_;
};

/// RAII lock scope. Releases on every exit path, exceptions included.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to common::Mutex.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and waits; `mu` is re-held on return. As with
  /// std::condition_variable, re-check the predicate (spurious wakeups).
  void Wait(Mutex& mu) REQUIRES(mu) { cv_.wait(mu); }

  /// Waits until `pred()` holds (evaluated with `mu` held).
  template <typename Predicate>
  void Wait(Mutex& mu, Predicate pred) REQUIRES(mu) {
    while (!pred()) cv_.wait(mu);
  }

  void NotifyOne() { cv_.notify_one(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace udr::common

#endif  // UDR_COMMON_MUTEX_H_
