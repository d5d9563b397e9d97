// Per-task modelled-time accumulator (health layer). Each executing rank
// carries a thread-local clock that the transport layers advance by every
// operation's modelled time; the engine reads the totals after a wave to
// find stragglers (tasks whose modelled time exceeds the wave's deadline).
//
// Header-only on purpose: HybridDart and the vmpi runtime advance the
// clock but must not link against cods_health (which links against them);
// an inline thread_local keeps the dependency arrow one-way.
#pragma once

#include <utility>

#include "common/types.hpp"

namespace cods {

class TaskClock {
 public:
  /// The full thread-local clock state. ExecMode::kSimulate multiplexes
  /// many rank fibers over one OS thread, so the discrete-event engine
  /// swaps the state in and out around every fiber switch with
  /// exchange(); each fiber then sees a private clock exactly as if it
  /// ran on its own thread.
  struct Snapshot {
    bool active = false;
    double elapsed = 0.0;
  };

  /// Replaces the thread's clock state with `next` and returns the
  /// previous state (restore it when the fiber switches back out).
  static Snapshot exchange(const Snapshot& next) {
    return std::exchange(state(), next);
  }

  /// Installs a fresh clock on this thread. The runtime calls this per
  /// rank body.
  static void install() {
    Snapshot& s = state();
    s.active = true;
    s.elapsed = 0.0;
  }

  /// Detaches the clock; subsequent advance() calls become no-ops.
  static void uninstall() { state().active = false; }

  /// Adds `seconds` of modelled time to the current task (no-op when no
  /// clock is installed — e.g. server-side sweeps outside any task).
  static void advance(double seconds) {
    Snapshot& s = state();
    if (s.active) s.elapsed += seconds;
  }

  /// Modelled seconds this task has accumulated so far.
  static double elapsed() { return state().elapsed; }

 private:
  static Snapshot& state() {
    static thread_local Snapshot s;
    return s;
  }
};

}  // namespace cods
