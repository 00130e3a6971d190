// Tests for the two concurrency mechanisms: the annotated locking layer
// (common/mutex.h) and checked thread confinement (common/thread_owner.h).
// The UDR_DEADLOCK_CHECK lock-order checker must fire on a seeded ABBA
// inversion, MutexLock must release on every exit path (exceptions
// included), CondVar must wake waiters through the checker's bookkeeping,
// and the owner checks must catch a second thread on an SpscQueue side, a
// PoaCache, a HeatTracker or a Metrics handle. The death tests are gated on
// UDR_DEADLOCK_CHECK (on by default outside Release builds — see the
// top-level CMakeLists).

#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/mutex.h"
#include "exec/spsc_queue.h"
#include "routing/heat_tracker.h"
#include "routing/poa_cache.h"

namespace udr {
namespace {

using common::CondVar;
using common::Mutex;
using common::MutexLock;

// ---------------------------------------------------------------------------
// Lock-order (deadlock) checker
// ---------------------------------------------------------------------------

#if defined(UDR_DEADLOCK_CHECK)

TEST(LockOrderCheckTest, ConsistentNestingDoesNotFire) {
  // A -> B nested repeatedly in one consistent order is a valid hierarchy;
  // the checker must stay quiet and the held stack must drain to empty.
  Mutex a("lockorder.consistent.A");
  Mutex b("lockorder.consistent.B");
  for (int i = 0; i < 100; ++i) {
    MutexLock la(a);
    MutexLock lb(b);
  }
  {  // Acquiring the outer lock alone is fine too.
    MutexLock la(a);
  }
  EXPECT_EQ(common::lockorder::HeldCount(), 0);
}

TEST(LockOrderCheckTest, AbbaInversionAborts) {
  // The seeded ABBA pattern: establish A -> B, then acquire B -> A. A real
  // deadlock needs two threads to interleave, but the ORDER inversion is
  // visible from one thread — which is the checker's whole value: it fires
  // on the first inverted acquisition, not on the unlucky schedule.
  EXPECT_DEATH(
      {
        Mutex a("lockorder.abba.A");
        Mutex b("lockorder.abba.B");
        {
          MutexLock la(a);
          MutexLock lb(b);  // Establishes A -> B.
        }
        MutexLock lb(b);
        MutexLock la(a);  // B -> A closes the cycle: abort.
      },
      "lock-order inversion.*lockorder\\.abba\\.A");
}

TEST(LockOrderCheckTest, SameNameNestingIsFlagged) {
  // Two instances of the same named class nested = a self-cycle in the
  // per-class order graph.
  EXPECT_DEATH(
      {
        Mutex first("lockorder.same.X");
        Mutex second("lockorder.same.X");
        MutexLock l1(first);
        MutexLock l2(second);
      },
      "lock-order inversion");
}

TEST(LockOrderCheckTest, InversionReportNamesBothStacks) {
  // The report must carry the acquiring thread's held stack AND the stack
  // recorded when the conflicting edge was established.
  EXPECT_DEATH(
      {
        Mutex outer("lockorder.report.OUTER");
        Mutex inner("lockorder.report.INNER");
        {
          MutexLock lo(outer);
          MutexLock li(inner);
        }
        MutexLock li(inner);
        MutexLock lo(outer);
      },
      "while holding \\[lockorder\\.report\\.INNER\\].*"
      "established earlier with held stack "
      "\\[lockorder\\.report\\.OUTER -> lockorder\\.report\\.INNER\\]");
}

#else

TEST(LockOrderCheckTest, DisabledInThisBuild) {
  GTEST_SKIP() << "UDR_DEADLOCK_CHECK is off (Release build?); the "
                  "lock-order checker tests need it compiled in.";
}

#endif  // UDR_DEADLOCK_CHECK

// ---------------------------------------------------------------------------
// MutexLock RAII
// ---------------------------------------------------------------------------

TEST(MutexLockTest, ReleasesOnException) {
  Mutex mu("raii.exception");
  try {
    MutexLock lock(mu);
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  // The throw unwound the scope; the mutex must be free again (TryLock on a
  // still-held std::mutex from the owning thread would be UB/deadlock).
  EXPECT_TRUE(mu.TryLock());
  mu.Unlock();
#if defined(UDR_DEADLOCK_CHECK)
  EXPECT_EQ(common::lockorder::HeldCount(), 0);
#endif
}

TEST(MutexTest, TryLockReportsContention) {
  Mutex mu("raii.trylock");
  mu.Lock();
  std::thread other([&mu] {
    // Held by the main thread: a try from another thread must fail without
    // blocking and without touching the order graph.
    EXPECT_FALSE(mu.TryLock());
  });
  other.join();
  mu.Unlock();
  EXPECT_TRUE(mu.TryLock());
  mu.Unlock();
}

// ---------------------------------------------------------------------------
// CondVar
// ---------------------------------------------------------------------------

TEST(CondVarTest, PredicateWaitHandshake) {
  Mutex mu("condvar.handshake");
  CondVar cv;
  bool ready = false;
  int observed = 0;
  std::thread waiter([&] {
    MutexLock lock(mu);
    cv.Wait(mu, [&] { return ready; });
    observed = 42;
  });
  {
    MutexLock lock(mu);
    ready = true;
  }
  cv.NotifyOne();
  waiter.join();
  EXPECT_EQ(observed, 42);
#if defined(UDR_DEADLOCK_CHECK)
  EXPECT_EQ(common::lockorder::HeldCount(), 0);
#endif
}

// ---------------------------------------------------------------------------
// SpscQueue owner-thread asserts (one common::ThreadOwner per side)
// ---------------------------------------------------------------------------

#if defined(UDR_DEADLOCK_CHECK)

TEST(SpscOwnerCheckTest, WrongThreadProducerAborts) {
  // Death tests that spawn threads need the exec-based style.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        exec::SpscQueue<int> q(8);
        ASSERT_TRUE(q.TryPush(1));  // Binds the producer role to this thread.
        std::thread intruder([&q] { (void)q.TryPush(2); });
        intruder.join();
      },
      "SpscQueue producer.*two threads");
}

TEST(SpscOwnerCheckTest, WrongThreadConsumerAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        exec::SpscQueue<int> q(8);
        int out = 0;
        (void)q.TryPop(&out);  // Binds the consumer role to this thread.
        std::thread intruder([&q] {
          int v = 0;
          (void)q.TryPop(&v);
        });
        intruder.join();
      },
      "SpscQueue consumer.*two threads");
}

TEST(SpscOwnerCheckTest, DistinctProducerAndConsumerThreadsAreFine) {
  exec::SpscQueue<int> q(64);
  std::thread producer([&q] {
    for (int i = 0; i < 1000; ++i) {
      int v = i;
      while (!q.TryPush(std::move(v))) std::this_thread::yield();
    }
  });
  int expected = 0;
  int out = 0;
  while (expected < 1000) {
    if (q.TryPop(&out)) {
      ASSERT_EQ(out, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
}

// ---------------------------------------------------------------------------
// Thread confinement of the per-shard objects (common::ThreadOwner)
// ---------------------------------------------------------------------------

TEST(ThreadOwnerCheckTest, PoaCacheUsedFromASecondThreadAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        routing::PoaCache cache(routing::PoaCacheConfig{});
        (void)cache.Invalidate(1);  // Binds the cache to this thread.
        std::thread intruder([&cache] { (void)cache.Lookup(1, 0, 0); });
        intruder.join();
      },
      "PoaCache used from two threads: owned by thread [0-9]+, called from "
      "thread [0-9]+");
}

TEST(ThreadOwnerCheckTest, HeatTrackerUsedFromASecondThreadAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        routing::HeatTracker tracker;
        tracker.RecordAccess(0, 1, 0);  // Binds the tracker to this thread.
        std::thread intruder([&tracker] { (void)tracker.KeyCount(1); });
        intruder.join();
      },
      "HeatTracker used from two threads: owned by thread [0-9]+, called "
      "from thread [0-9]+");
}

TEST(ThreadOwnerCheckTest, MetricsHandleUsedFromASecondThreadAborts) {
  // The hot handle carries its registry's owner: a bump through it from a
  // second thread aborts although it never touches the registry itself.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Metrics metrics;
        Metrics::Counter ops = metrics.RegisterCounter("test.ops");
        ops.Add();
        std::thread intruder([&ops] { ops.Add(); });
        intruder.join();
      },
      "Metrics registry used from two threads: owned by thread [0-9]+, "
      "called from thread [0-9]+");
}

TEST(ThreadOwnerCheckTest, RebindAfterJoinHandsTheObjectOver) {
  // The ShardRuntime::Finish pattern: built and used on a worker, joined,
  // then rebound to and used by the joining thread.
  std::unique_ptr<Metrics> metrics;
  Metrics::Counter ops;
  std::thread worker([&] {
    metrics = std::make_unique<Metrics>();
    ops = metrics->RegisterCounter("test.ops");
    ops.Add(2);
  });
  worker.join();
  metrics->RebindToThisThread();
  ops.Add();
  EXPECT_EQ(metrics->Get("test.ops"), 3);
}

#else

TEST(ThreadOwnerCheckTest, DisabledInThisBuild) {
  GTEST_SKIP() << "UDR_DEADLOCK_CHECK is off (Release build?); the "
                  "thread-owner checks need it compiled in.";
}

#endif  // UDR_DEADLOCK_CHECK

}  // namespace
}  // namespace udr
