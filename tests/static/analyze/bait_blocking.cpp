// Bait for the blocking check (tools/analyze/codslint/checks/blocking.py).
//
// Every OS-blocking primitive the CondVar/SimHook funnel exists to replace,
// including one hidden behind a type alias — the reason this check reads
// the AST index instead of grepping — and every raw standard mutex and
// lock guard the Mutex/MutexLock wrappers replace, again with one alias.

#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <shared_mutex>
#include <thread>

namespace bait_blocking {

using Waiter = std::condition_variable;  // codslint-expect(blocking)

struct Worker {
  std::thread worker_;                   // codslint-expect(blocking)
  std::condition_variable cv_;           // codslint-expect(blocking)
  std::future<int> pending_;             // codslint-expect(blocking)

  void stop() {
    worker_.join();                      // codslint-expect(blocking)
  }

  void nap() {
    std::this_thread::sleep_for(         // codslint-expect(blocking)
        std::chrono::milliseconds(1));
  }

  void wait_aliased() {
    Waiter w;                            // codslint-expect(blocking)
    (void)w;
  }

  // steady_clock arithmetic alone is NOT blocking — the blocking check
  // must stay silent — but the clock check confines steady_clock to
  // common/sync.hpp, so each mention fires there.
  std::chrono::steady_clock::time_point  // codslint-expect(clock)
  deadline() {
    return std::chrono::steady_clock::now() +  // codslint-expect(clock)
           std::chrono::milliseconds(5);
  }
};

using Reentrant = std::recursive_mutex;  // codslint-expect(blocking)

struct RawLocks {
  std::mutex mu_;                        // codslint-expect(blocking)
  std::shared_mutex rw_;                 // codslint-expect(blocking)
  std::recursive_mutex re_;              // codslint-expect(blocking)
  std::timed_mutex timed_;               // codslint-expect(blocking)
  std::recursive_timed_mutex re_timed_;  // codslint-expect(blocking)
  std::shared_timed_mutex rw_timed_;     // codslint-expect(blocking)
  Reentrant aliased_;                    // codslint-expect(blocking)

  void exclusive() {
    std::lock_guard guard(mu_);          // codslint-expect(blocking)
  }
  void scoped() {
    std::scoped_lock guard(mu_);         // codslint-expect(blocking)
  }
  void unique() {
    std::unique_lock guard(mu_);         // codslint-expect(blocking)
  }
  void shared() {
    std::shared_lock guard(rw_);         // codslint-expect(blocking)
  }
};

}  // namespace bait_blocking
