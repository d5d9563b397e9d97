// Compiler-checked lock discipline (docs/CONCURRENCY.md).
//
// This header is the only place in src/ allowed to touch the raw standard
// locking primitives (enforced by the codslint `blocking` check,
// tools/analyze/codslint). It provides:
//
//   * Clang thread-safety-annotation macros (CODS_GUARDED_BY,
//     CODS_REQUIRES, CODS_EXCLUDES, ...). Under Clang every shared field
//     annotated with its guarding mutex and every locked-context method
//     annotated with CODS_REQUIRES is *proved* consistent by
//     -Wthread-safety -Werror (the CI `clang-threadsafety` job); under GCC
//     the macros expand to nothing.
//
//   * Annotated wrappers Mutex / SharedMutex and RAII guards MutexLock /
//     ReaderLock / WriterLock, plus a CondVar that works with MutexLock.
//     In debug builds each blocking acquisition additionally feeds the
//     process-wide lock-order registry (common/lock_order.hpp) with the
//     lock's class (its name); the registry aborts with the class names on
//     the first ordering cycle and can dump the observed class hierarchy
//     as documentation. Building a lock touches no global state.
#pragma once

#include <chrono>
#include <cstddef>
#include <condition_variable>  // wrapped by CondVar
#include <mutex>               // wrapped by Mutex
#include <shared_mutex>        // wrapped by SharedMutex

#include "common/blocking.hpp"
#include "common/lock_order.hpp"

// Clang exposes the analysis through attributes; other compilers see
// no-ops, so annotated code stays portable.
#if defined(__clang__)
#define CODS_TSA(x) __attribute__((x))
#else
#define CODS_TSA(x)  // no-op outside Clang
#endif

#define CODS_CAPABILITY(x) CODS_TSA(capability(x))
#define CODS_SCOPED_CAPABILITY CODS_TSA(scoped_lockable)
#define CODS_GUARDED_BY(x) CODS_TSA(guarded_by(x))
#define CODS_PT_GUARDED_BY(x) CODS_TSA(pt_guarded_by(x))
#define CODS_ACQUIRED_BEFORE(...) CODS_TSA(acquired_before(__VA_ARGS__))
#define CODS_ACQUIRED_AFTER(...) CODS_TSA(acquired_after(__VA_ARGS__))
#define CODS_REQUIRES(...) CODS_TSA(requires_capability(__VA_ARGS__))
#define CODS_REQUIRES_SHARED(...) \
  CODS_TSA(requires_shared_capability(__VA_ARGS__))
#define CODS_ACQUIRE(...) CODS_TSA(acquire_capability(__VA_ARGS__))
#define CODS_ACQUIRE_SHARED(...) \
  CODS_TSA(acquire_shared_capability(__VA_ARGS__))
#define CODS_RELEASE(...) CODS_TSA(release_capability(__VA_ARGS__))
#define CODS_RELEASE_SHARED(...) \
  CODS_TSA(release_shared_capability(__VA_ARGS__))
#define CODS_TRY_ACQUIRE(...) CODS_TSA(try_acquire_capability(__VA_ARGS__))
#define CODS_TRY_ACQUIRE_SHARED(...) \
  CODS_TSA(try_acquire_shared_capability(__VA_ARGS__))
#define CODS_EXCLUDES(...) CODS_TSA(locks_excluded(__VA_ARGS__))
#define CODS_RETURN_CAPABILITY(x) CODS_TSA(lock_returned(x))
#define CODS_NO_THREAD_SAFETY_ANALYSIS CODS_TSA(no_thread_safety_analysis)

namespace cods {

class CondVar;
class MutexLock;

/// Annotated exclusive mutex. Its name is its lock class: the lock-order
/// registry checks ordering between classes, not instances, and reports
/// two locks of one class held at once. Give every distinct mutex role a
/// distinct "subsystem.role" name. The name must be a string literal (or
/// another character array of static storage); the constructor stores the
/// pointer and does nothing else.
class CODS_CAPABILITY("mutex") Mutex {
 public:
  template <std::size_t N>
  explicit Mutex(const char (&lock_class)[N]) : class_(lock_class) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  // Under ExecMode::kSimulate (runtime/sim.hpp) a thread-local SimHook
  // diverts acquisition: the hook spins on try_lock(), suspending the
  // calling fiber between attempts, and unlock() reports the release so
  // the engine can wake fiber waiters. Everything stays on one OS
  // thread, so the native mutex is never contended there; the hook path
  // exists to keep *fiber* interleavings live-accurate. The acquisition
  // still reports its ordering edges first; the try_lock() that wins
  // marks the class held in the fiber's own held set.
  void lock() CODS_ACQUIRE() {
    if (blocking::SimHook* sim = blocking::sim_hook(); sim != nullptr) {
      if (lock_order::enabled()) lock_order::on_acquire_attempt(class_);
      sim->lock(*this);
      return;
    }
    lock_order::on_acquire(class_);
    impl_.lock();
  }
  void unlock() CODS_RELEASE() {
    impl_.unlock();
    lock_order::on_release(class_);
    if (blocking::SimHook* sim = blocking::sim_hook(); sim != nullptr) {
      sim->unlock(*this);
    }
  }
  bool try_lock() CODS_TRY_ACQUIRE(true) {
    if (!impl_.try_lock()) return false;
    lock_order::on_try_acquire(class_);
    return true;
  }

 private:
  friend class CondVar;
  friend class MutexLock;

  std::mutex impl_;
  const char* class_;  ///< lock class: a static-storage name
};

/// Annotated reader/writer mutex; named by its lock class, like Mutex.
class CODS_CAPABILITY("shared_mutex") SharedMutex {
 public:
  template <std::size_t N>
  explicit SharedMutex(const char (&lock_class)[N]) : class_(lock_class) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() CODS_ACQUIRE() {
    lock_order::on_acquire(class_);
    impl_.lock();
  }
  void unlock() CODS_RELEASE() {
    impl_.unlock();
    lock_order::on_release(class_);
  }
  // Shared acquisitions take ordering edges too: a reader blocked behind a
  // queued writer deadlocks a cycle just like an exclusive holder.
  void lock_shared() CODS_ACQUIRE_SHARED() {
    lock_order::on_acquire(class_);
    impl_.lock_shared();
  }
  void unlock_shared() CODS_RELEASE_SHARED() {
    impl_.unlock_shared();
    lock_order::on_release(class_);
  }

 private:
  std::shared_mutex impl_;
  const char* class_;  ///< lock class: a static-storage name
};

/// RAII exclusive guard over a Mutex. Supports early release (unlock())
/// and blocking waits through CondVar.
class CODS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CODS_ACQUIRE(mu) : mu_(&mu) {
    mu_->lock();
    owns_ = true;
  }
  ~MutexLock() CODS_RELEASE() {
    if (owns_) mu_->unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Releases before the end of the scope (e.g. to throw without the lock).
  void unlock() CODS_RELEASE() {
    mu_->unlock();
    owns_ = false;
  }

 private:
  friend class CondVar;

  Mutex* mu_;
  bool owns_ = false;
};

/// RAII exclusive guard over a SharedMutex.
class CODS_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) CODS_ACQUIRE(mu) : mu_(&mu) {
    mu_->lock();
  }
  ~WriterLock() CODS_RELEASE() { mu_->unlock(); }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// RAII shared guard over a SharedMutex.
class CODS_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) CODS_ACQUIRE_SHARED(mu) : mu_(&mu) {
    mu_->lock_shared();
  }
  ~ReaderLock() CODS_RELEASE() { mu_->unlock_shared(); }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// A timeout for CondVar waits that keeps wall-clock types out of the
/// rest of src/ (the codslint `clock` check pins this header as the only
/// place allowed to touch std::chrono::steady_clock). On a live thread it
/// captures `steady_clock::now() + timeout` once, so a waiter looping on
/// its predicate re-waits against a fixed wall deadline. Under
/// ExecMode::kSimulate (a blocking::SimHook is installed) it never reads
/// the wall clock at all: it carries the relative timeout in seconds and
/// every wait arms a *virtual* deadline from the fiber's current virtual
/// time — a million parked ranks cost zero clock syscalls.
class WaitDeadline {
 public:
  template <typename Rep, typename Period>
  explicit WaitDeadline(std::chrono::duration<Rep, Period> timeout)
      : is_virtual_(blocking::sim_hook() != nullptr) {
    if (is_virtual_) {
      seconds_ = std::chrono::duration<double>(timeout).count();
    } else {
      wall_ = std::chrono::steady_clock::now() +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  timeout);
    }
  }

  /// True when the deadline is virtual (simulate mode): it holds a
  /// relative timeout, not a wall time_point.
  bool is_virtual() const { return is_virtual_; }

 private:
  friend class CondVar;

  std::chrono::steady_clock::time_point wall_{};
  double seconds_ = 0.0;  ///< relative timeout when is_virtual_
  bool is_virtual_;
};

/// Condition variable paired with Mutex/MutexLock. Waiting re-acquires
/// through the raw handle (the capability state is unchanged across a
/// wait, matching the analysis' view).
///
/// Every wait is bracketed by blocking::ScopedBlock: CondVar is the one
/// place all unbounded waits in src/ pass through, so notifying the
/// thread's blocking::Observer here covers mailbox receives, collectives,
/// lock-service and space waits without per-site instrumentation. The
/// on_block() callback runs while the caller's mutex is still held, so
/// observers may only take leaf locks (see blocking.hpp).
/// Under ExecMode::kSimulate the same funnel property carries the whole
/// discrete-event mode: a thread-local blocking::SimHook diverts every
/// wait and notification into the engine's virtual event queue (waits
/// suspend the calling fiber; timeouts become virtual deadlines measured
/// from the time left until `tp`), so simulated ranks block and wake
/// with live semantics without ever parking the OS thread.
class CondVar {
 public:
  void notify_one() {
    if (blocking::SimHook* sim = blocking::sim_hook(); sim != nullptr) {
      sim->notify(this, /*all=*/false);
      return;
    }
    cv_.notify_one();
  }
  void notify_all() {
    if (blocking::SimHook* sim = blocking::sim_hook(); sim != nullptr) {
      sim->notify(this, /*all=*/true);
      return;
    }
    cv_.notify_all();
  }

  void wait(MutexLock& lock) {
    if (blocking::SimHook* sim = blocking::sim_hook(); sim != nullptr) {
      sim->wait(this, *lock.mu_);
      return;
    }
    blocking::ScopedBlock block;
    std::unique_lock<std::mutex> native(lock.mu_->impl_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  template <typename Pred>
  void wait(MutexLock& lock, Pred pred) {
    if (blocking::SimHook* sim = blocking::sim_hook(); sim != nullptr) {
      while (!pred()) sim->wait(this, *lock.mu_);
      return;
    }
    blocking::ScopedBlock block;
    std::unique_lock<std::mutex> native(lock.mu_->impl_, std::adopt_lock);
    cv_.wait(native, std::move(pred));
    native.release();
  }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(
      MutexLock& lock, const std::chrono::time_point<Clock, Duration>& tp) {
    if (blocking::SimHook* sim = blocking::sim_hook(); sim != nullptr) {
      const double seconds =
          std::chrono::duration<double>(tp - Clock::now()).count();
      return sim->wait_until(this, *lock.mu_, seconds)
                 ? std::cv_status::timeout
                 : std::cv_status::no_timeout;
    }
    blocking::ScopedBlock block;
    std::unique_lock<std::mutex> native(lock.mu_->impl_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(native, tp);
    native.release();
    return status;
  }

  /// Deadline-object overload: the one timed-wait entry point for code
  /// outside this header. A WaitDeadline built under a SimHook routes
  /// straight to the hook with its relative timeout (no wall-clock read
  /// on either side); a live one behaves like wait_until(lock, tp).
  std::cv_status wait_until(MutexLock& lock, const WaitDeadline& deadline) {
    if (blocking::SimHook* sim = blocking::sim_hook(); sim != nullptr) {
      return sim->wait_until(this, *lock.mu_, deadline.seconds_)
                 ? std::cv_status::timeout
                 : std::cv_status::no_timeout;
    }
    blocking::ScopedBlock block;
    std::unique_lock<std::mutex> native(lock.mu_->impl_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(native, deadline.wall_);
    native.release();
    return status;
  }

 private:
  std::condition_variable cv_;
};

}  // namespace cods
