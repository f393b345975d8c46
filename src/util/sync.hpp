#pragma once
// Capability-annotated synchronization primitives (Clang Thread Safety
// Analysis).
//
// Every lock in this repository goes through these wrappers so the lock
// discipline is a *compile-time* contract, not a test-time hope: a member
// declared PAPAYA_GUARDED_BY(mu_) cannot be read or written without holding
// mu_, a function declared PAPAYA_REQUIRES(mu_) cannot be called without it,
// and `clang++ -Wthread-safety -Werror=thread-safety` (the CI "thread-safety"
// job) turns any violation — e.g. deleting a LockGuard line in
// ParallelAggregator — into a build failure.  On compilers without the
// attribute (GCC) every macro expands to nothing and the wrappers are
// zero-cost veneers over the std primitives.
//
// Repo rule (enforced by scripts/check_invariants.sh): raw std::mutex /
// std::shared_mutex / std::condition_variable / std::lock_guard /
// std::unique_lock / std::scoped_lock may appear ONLY in this header.
//
// Lock hierarchy (a thread may only acquire downwards; documented per-module
// and in docs/ARCHITECTURE.md "Concurrency & analysis"):
//
//   level 0 (leaf, never held while taking another lock):
//     util::Logger::mutex_            src/util/log.hpp
//     LockedSlot::lock                src/fl/agg_strategy.cpp (per slot)
//     GlobalPartition::lock           src/fl/agg_strategy.cpp (per partition)
//     KernelPool::mutex_              src/ml/model.cpp (MLP kernel pool; its
//       workers hold no other lock)
//   level 1:
//     ParallelAggregator::queue_mutex_  src/fl/parallel_agg.hpp
//       (workers hold it only around queue ops, release it before folding
//        into a level-0 strategy lock; the reduce path's quiesce handshake
//        means queue_mutex_ and a strategy lock are never held together)
//   level 2:
//     Coordinator::mutex_             src/fl/coordinator.hpp
//       (placement and failover call into Aggregator task assignment and
//        removal while holding it, which constructs or tears down
//        ParallelAggregator pools — so it sits above queue_mutex_.
//        Aggregator code never calls back into the Coordinator: acyclic.)
//   independent roots (never nested with each other or the above):
//     SecureBufferManager::mutex_     src/fl/secure_buffer.hpp
//     VirtualSessionManager::mutex_   src/fl/session.hpp
//     ModelStore::mutex_              src/fl/model_store.hpp

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

// ---------------------------------------------------------------------------
// Attribute macros.  Clang-only; see
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
// ---------------------------------------------------------------------------
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define PAPAYA_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef PAPAYA_THREAD_ANNOTATION
#define PAPAYA_THREAD_ANNOTATION(x)  // no-op on non-Clang compilers
#endif

#define PAPAYA_CAPABILITY(x) PAPAYA_THREAD_ANNOTATION(capability(x))
#define PAPAYA_SCOPED_CAPABILITY PAPAYA_THREAD_ANNOTATION(scoped_lockable)
#define PAPAYA_GUARDED_BY(x) PAPAYA_THREAD_ANNOTATION(guarded_by(x))
#define PAPAYA_PT_GUARDED_BY(x) PAPAYA_THREAD_ANNOTATION(pt_guarded_by(x))
#define PAPAYA_ACQUIRED_BEFORE(...) \
  PAPAYA_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define PAPAYA_ACQUIRED_AFTER(...) \
  PAPAYA_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define PAPAYA_REQUIRES(...) \
  PAPAYA_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define PAPAYA_REQUIRES_SHARED(...) \
  PAPAYA_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define PAPAYA_ACQUIRE(...) \
  PAPAYA_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define PAPAYA_ACQUIRE_SHARED(...) \
  PAPAYA_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define PAPAYA_RELEASE(...) \
  PAPAYA_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define PAPAYA_RELEASE_SHARED(...) \
  PAPAYA_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define PAPAYA_TRY_ACQUIRE(...) \
  PAPAYA_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define PAPAYA_EXCLUDES(...) PAPAYA_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define PAPAYA_ASSERT_CAPABILITY(x) \
  PAPAYA_THREAD_ANNOTATION(assert_capability(x))
#define PAPAYA_RETURN_CAPABILITY(x) PAPAYA_THREAD_ANNOTATION(lock_returned(x))
#define PAPAYA_NO_THREAD_SAFETY_ANALYSIS \
  PAPAYA_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace papaya::util {

class CondVar;
class LockGuard;
class SharedLockGuard;

/// Exclusive mutex capability.  Prefer LockGuard over manual lock()/unlock().
class PAPAYA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PAPAYA_ACQUIRE() { mutex_.lock(); }
  void unlock() PAPAYA_RELEASE() { mutex_.unlock(); }
  bool try_lock() PAPAYA_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

  /// Acquire, reporting whether the lock was contended (found held on the
  /// first attempt) — the aggregation strategies feed this into
  /// AggStats::on_lock so the adaptive picker can see contention.  Pair
  /// with `LockGuard guard(mu, std::adopt_lock)`.
  bool lock_reporting_contention() PAPAYA_ACQUIRE() {
    if (mutex_.try_lock()) return false;
    mutex_.lock();
    return true;
  }

  /// Tell the analysis this capability is held (runtime no-op).  Needed in
  /// lambdas — e.g. CondVar wait predicates — which Clang TSA analyzes as
  /// separate functions that cannot see the caller's lock set.
  void assert_held() const PAPAYA_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  friend class LockGuard;
  std::mutex mutex_;
};

/// Reader/writer capability (std::shared_mutex).
class PAPAYA_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() PAPAYA_ACQUIRE() { mutex_.lock(); }
  void unlock() PAPAYA_RELEASE() { mutex_.unlock(); }
  void lock_shared() PAPAYA_ACQUIRE_SHARED() { mutex_.lock_shared(); }
  void unlock_shared() PAPAYA_RELEASE_SHARED() { mutex_.unlock_shared(); }

  void assert_held() const PAPAYA_ASSERT_CAPABILITY(this) {}

 private:
  friend class LockGuard;
  friend class SharedLockGuard;
  std::shared_mutex mutex_;
};

/// RAII exclusive lock over Mutex or SharedMutex.  Wraps std::unique_lock so
/// CondVar can wait on it (Mutex only).
class PAPAYA_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mutex) PAPAYA_ACQUIRE(mutex)
      : lock_(mutex.mutex_) {}
  /// Adopt a lock already acquired (e.g. via lock_reporting_contention()).
  LockGuard(Mutex& mutex, std::adopt_lock_t) PAPAYA_REQUIRES(mutex)
      : lock_(mutex.mutex_, std::adopt_lock) {}
  explicit LockGuard(SharedMutex& mutex) PAPAYA_ACQUIRE(mutex)
      : shared_target_(&mutex.mutex_) {
    shared_target_->lock();
  }
  ~LockGuard() PAPAYA_RELEASE() {
    if (shared_target_ != nullptr) shared_target_->unlock();
  }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;         ///< engaged for Mutex
  std::shared_mutex* shared_target_ = nullptr;  ///< engaged for SharedMutex
};

/// RAII shared (reader) lock over SharedMutex.
class PAPAYA_SCOPED_CAPABILITY SharedLockGuard {
 public:
  explicit SharedLockGuard(SharedMutex& mutex) PAPAYA_ACQUIRE_SHARED(mutex)
      : lock_(mutex.mutex_) {}
  ~SharedLockGuard() PAPAYA_RELEASE() {}

  SharedLockGuard(const SharedLockGuard&) = delete;
  SharedLockGuard& operator=(const SharedLockGuard&) = delete;

 private:
  std::shared_lock<std::shared_mutex> lock_;
};

/// Condition variable bound to util::Mutex.  wait() takes both the Mutex (so
/// the analysis can check the caller holds it) and the LockGuard holding it
/// (so the underlying std::condition_variable can unlock/relock it).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  void wait(Mutex& mutex, LockGuard& guard) PAPAYA_REQUIRES(mutex) {
    (void)mutex;
    cv_.wait(guard.lock_);
  }

  /// Predicate wait.  Clang TSA analyzes the predicate lambda as its own
  /// function, blind to the held lock — open it with `mutex.assert_held()`
  /// before touching guarded state.
  template <typename Predicate>
  void wait(Mutex& mutex, LockGuard& guard, Predicate predicate)
      PAPAYA_REQUIRES(mutex) {
    (void)mutex;
    cv_.wait(guard.lock_, std::move(predicate));
  }

 private:
  std::condition_variable cv_;
};

}  // namespace papaya::util
