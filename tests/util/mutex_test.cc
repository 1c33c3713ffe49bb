// Runtime behavior of the annotated mutex wrappers (util/mutex.h). The
// capability annotations themselves are exercised by the negative-compile
// suite in tests/threadsafety/; here we check that the wrappers actually
// provide mutual exclusion, shared access, try-lock, and condition-variable
// interop — they are the lock implementation for the whole serving stack,
// so a bug here is a bug everywhere.

#include "util/mutex.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace mcm::util {
namespace {

TEST(MutexTest, ExcludesConcurrentIncrements) {
  Mutex mu;
  int counter MCM_GUARDED_BY(mu) = 0;
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();

  MutexLock lock(mu);
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST(MutexTest, TryLockReportsContention) {
  Mutex mu;
  ASSERT_TRUE(mu.TryLock());
  // Same thread, second attempt: std::mutex try_lock on a held mutex from
  // another thread must fail; probe from a helper thread to stay defined.
  bool second = true;
  std::thread probe([&] { second = mu.TryLock(); });
  probe.join();
  EXPECT_FALSE(second);
  mu.Unlock();

  std::thread probe2([&] {
    if (mu.TryLock()) {
      mu.Unlock();
    } else {
      ADD_FAILURE() << "TryLock failed on a free mutex";
    }
  });
  probe2.join();
}

TEST(MutexTest, ManualLockUnlockOnScopedLocker) {
  Mutex mu;
  int value MCM_GUARDED_BY(mu) = 0;
  MutexLock lock(mu);
  value = 1;
  lock.Unlock();
  lock.Lock();
  value = 2;
  EXPECT_EQ(value, 2);
  // Destructor releases the re-acquired lock; a second release would throw.
}

TEST(MutexTest, WaitReleasesAndReacquires) {
  Mutex mu;
  std::condition_variable cv;
  bool ready MCM_GUARDED_BY(mu) = false;
  int observed = -1;

  std::thread waiter([&] {
    MutexLock lock(mu);
    while (!ready) lock.Wait(cv);
    observed = 1;
  });
  {
    // If Wait failed to release mu, this acquisition would deadlock.
    MutexLock lock(mu);
    ready = true;
  }
  cv.notify_one();
  waiter.join();
  EXPECT_EQ(observed, 1);
}

TEST(SharedMutexTest, ReadersShareWritersExclude) {
  SharedMutex mu;
  int value MCM_GUARDED_BY(mu) = 0;
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kIters = 2000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        WriterMutexLock lock(mu);
        ++value;
      }
    });
  }
  std::vector<int> last(kReaders, 0);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        ReaderMutexLock lock(mu);
        // Torn reads would show up as values outside [0, total].
        last[t] = value;
      }
    });
  }
  for (auto& th : threads) th.join();

  WriterMutexLock lock(mu);
  EXPECT_EQ(value, kWriters * kIters);
  for (int v : last) {
    EXPECT_GE(v, 0);
    EXPECT_LE(v, kWriters * kIters);
  }
}

TEST(LockRankTest, RegistryOrderIsDocumented) {
  // The rank markers are never locked at runtime; this pins the intended
  // global order in one place so a reordering shows up as a test diff, not
  // only as a CI compile error under MCM_THREAD_SAFETY.
  const LockRank* order[] = {
      &kLockRankService,        &kLockRankSupervisor,
      &kLockRankFollower,       &kLockRankStoreCommit, &kLockRankStoreTip,
      &kLockRankSymbols,        &kLockRankFaultInjection,
      &kLockRankTransport,
  };
  EXPECT_EQ(std::size(order), 8u);
  for (size_t i = 0; i < std::size(order); ++i) {
    for (size_t j = i + 1; j < std::size(order); ++j) {
      EXPECT_NE(order[i], order[j]);
    }
  }
}

}  // namespace
}  // namespace mcm::util
