// Annotated mutex types and the global lock-order registry.
//
// std::mutex / std::lock_guard carry no thread-safety attributes under
// libstdc++, so Clang's analysis cannot follow their acquisitions. These
// thin wrappers restore visibility: `Mutex` / `SharedMutex` are declared
// MCM_CAPABILITY, and the scoped lockers (`MutexLock`, `ReaderMutexLock`,
// `WriterMutexLock`) are MCM_SCOPED_CAPABILITY, so
//
//   MutexLock lock(mu_);
//   ++guarded_field_;        // proven: mu_ is held here
//
// type-checks, while the same access outside the scope is a compile error
// under -DMCM_THREAD_SAFETY=ON. The wrappers are zero-cost: each is exactly
// the std primitive plus attributes.
//
// ---------------------------------------------------------------------------
// Lock-order registry (the capability hierarchy)
//
// Every long-lived mutex in the concurrent stack is assigned a rank; a
// thread may only acquire a mutex of a *higher* rank than any it already
// holds. The ranks, outermost first:
//
//   rank | capability                      | protects
//   -----+---------------------------------+---------------------------------
//     1  | service::QueryService::mu_      | admission queue, worker state,
//        |                                 | service stats
//     3  | ReplicaSupervisor::mu_          | follower-fleet slot state
//        |                                 | (phase, backoff schedule, fleet
//        |                                 | tip watermark); held across a
//        |                                 | slot's Sync/Promote, which take
//        |                                 | the follower (rank 4) and store
//        |                                 | (ranks 5-6) locks beneath it
//     4  | Follower::mu_                   | replication follower health
//        |                                 | (applied/primary-tip epochs,
//        |                                 | sticky halt status); may be held
//        |                                 | while the follower's store
//        |                                 | commits (rank 5)
//     5  | VersionedStore::commit_mu_      | the single-writer commit path:
//        |                                 | WAL handle, recovered_ flag
//     6  | VersionedStore::tip_mu_         | the tip version pointer
//        |                                 | (acquired under rank 5 by
//        |                                 | Commit/Checkpoint/Recover)
//     7  | SymbolTable::mu_                | interning table (leaf; acquired
//        |                                 | under rank 5 while binding)
//     8  | util::FaultInjection::mu_       | fault-site registry (leaf;
//        |                                 | acquired under rank 5 via
//        |                                 | MCM_FAULT_POINT in WAL and
//        |                                 | checkpoint code)
//     9  | InProcessPipe::mu_              | replication transport byte
//        |                                 | queue (leaf; never held while
//        |                                 | any other capability is)
//
// Rank 2 is unused; the other ranks keep their numbers.
//
// The ranks are encoded as never-locked marker capabilities (`LockRank`
// objects below) chained with MCM_ACQUIRED_AFTER; each real mutex then
// declares MCM_ACQUIRED_AFTER(its rank) and MCM_ACQUIRED_BEFORE(the next
// rank). Acquiring against the declared order — e.g. taking
// ReplicaSupervisor::mu_ while holding Follower::mu_ — is a compile error
// under -Wthread-safety-beta, which makes the supervisor -> follower ->
// store acquisition discipline a static deadlock audit. New mutexes MUST be
// slotted into this table (add a rank, chain the markers) before they are
// acquired while any registered lock is held.
#pragma once

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "util/thread_annotations.h"

namespace mcm::util {

/// \brief Annotated std::mutex. Prefer the scoped `MutexLock`; the manual
/// Lock/Unlock surface exists for the rare staged-locking paths.
class MCM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() MCM_ACQUIRE() { mu_.lock(); }
  void Unlock() MCM_RELEASE() { mu_.unlock(); }
  bool TryLock() MCM_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// The wrapped primitive, for condition_variable interop only (use
  /// MutexLock::Wait rather than touching this directly).
  std::mutex& Native() { return mu_; }

 private:
  std::mutex mu_;
};

/// \brief Annotated std::shared_mutex (reader/writer capability).
class MCM_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() MCM_ACQUIRE() { mu_.lock(); }
  void Unlock() MCM_RELEASE() { mu_.unlock(); }
  void LockShared() MCM_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() MCM_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// \brief Scoped exclusive lock over a Mutex (annotated std::unique_lock).
///
/// Supports early Unlock()/re-Lock() and condition-variable waits; the
/// destructor releases only if still held. The analysis tracks the held
/// state across all of it.
class MCM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MCM_ACQUIRE(mu) : lock_(mu.Native()) {}
  ~MutexLock() MCM_RELEASE() {}  // unique_lock releases only if still held

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void Lock() MCM_ACQUIRE() { lock_.lock(); }
  void Unlock() MCM_RELEASE() { lock_.unlock(); }

  /// Wait on `cv`, releasing the mutex while blocked and reacquiring it
  /// before returning — so the capability is held on both sides, and
  /// predicate re-checks stay in the caller where the analysis can see
  /// them:
  ///
  ///   MutexLock lock(mu_);
  ///   while (!guarded_condition_) lock.Wait(cv_);
  void Wait(std::condition_variable& cv) { cv.wait(lock_); }

 private:
  std::unique_lock<std::mutex> lock_;
};

/// \brief Scoped shared (reader) lock over a SharedMutex.
class MCM_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) MCM_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderMutexLock() MCM_RELEASE() { mu_.UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// \brief Scoped exclusive (writer) lock over a SharedMutex.
class MCM_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) MCM_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterMutexLock() MCM_RELEASE() { mu_.Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// \brief Never-locked marker capability encoding one rank of the global
/// lock order (see the registry table in the header comment).
///
/// Real mutexes slot between two markers with MCM_ACQUIRED_AFTER /
/// MCM_ACQUIRED_BEFORE; the markers themselves form a chain, so the order
/// relation is transitive across classes that cannot name each other's
/// private members.
struct MCM_CAPABILITY("lock_rank") LockRank {};

/// Rank 1: service::QueryService::mu_.
inline LockRank kLockRankService;
/// Rank 3: ReplicaSupervisor::mu_ (fleet slot state).
inline LockRank kLockRankSupervisor MCM_ACQUIRED_AFTER(kLockRankService);
/// Rank 4: Follower::mu_ (replication health / halt state).
inline LockRank kLockRankFollower MCM_ACQUIRED_AFTER(kLockRankSupervisor);
/// Rank 5: VersionedStore::commit_mu_ (the single-writer capability).
inline LockRank kLockRankStoreCommit MCM_ACQUIRED_AFTER(kLockRankFollower);
/// Rank 6: VersionedStore::tip_mu_.
inline LockRank kLockRankStoreTip MCM_ACQUIRED_AFTER(kLockRankStoreCommit);
/// Rank 7: SymbolTable::mu_ (leaf).
inline LockRank kLockRankSymbols MCM_ACQUIRED_AFTER(kLockRankStoreTip);
/// Rank 8: util::FaultInjection::mu_ (leaf).
inline LockRank kLockRankFaultInjection MCM_ACQUIRED_AFTER(kLockRankSymbols);
/// Rank 9: replication transport buffers (InProcessPipe::mu_, leaf).
inline LockRank kLockRankTransport MCM_ACQUIRED_AFTER(kLockRankFaultInjection);

}  // namespace mcm::util
