// Process-wide lock-order registry (docs/CONCURRENCY.md), keyed on lock
// classes as Linux lockdep is. A lock's class is the name it is built with
// ("subsystem.role"): every cods::Mutex / cods::SharedMutex stores that
// static-storage string and does nothing else at construction, so building
// a lock never touches this registry. Blocking acquisitions report here by
// class; the registry interns each class into a dense id, records each
// (held class -> acquired class) edge into a wait-for graph and flags the
// first edge that closes a cycle — turning a potential deadlock into a
// deterministic failure that names every class on the cycle. Two locks of
// one class held at once are reported as a recursive acquisition. The
// registry grows with the number of classes in the code, not with the
// number of locks a run builds. The accumulated graph doubles as
// documentation: dump_hierarchy() renders the observed class ordering.
//
// Tracking is enabled by default in debug builds (NDEBUG undefined) and
// disabled in release builds, where each hook is a single relaxed atomic
// test; set_enabled(true) forces it on in any build (used by tests).
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace cods::lock_order {

/// Blocking acquisition of a lock of class `lock_class` about to start:
/// records a (held -> lock_class) edge for every lock the calling thread
/// already holds, runs cycle detection, and marks the class held. Call
/// *before* blocking on the underlying mutex so an inversion is reported
/// instead of deadlocking. `lock_class` must have static storage; classes
/// are compared by content.
void on_acquire(const char* lock_class);

/// Blocking acquisition of a lock of class `lock_class` that a later
/// successful try-lock completes: records the same edges and runs the
/// same cycle detection as on_acquire(), but leaves marking the class
/// held to on_try_acquire(). A scheduler that acquires by retrying a
/// try-lock (runtime/sim.hpp) reports its acquisitions this way.
void on_acquire_attempt(const char* lock_class);

/// Successful non-blocking acquisition: marks `lock_class` held without
/// recording ordering edges (try-lock cannot deadlock; out-of-order
/// try-lock is a legitimate deadlock-avoidance pattern).
void on_try_acquire(const char* lock_class);

/// Release: unmarks the most recent hold of `lock_class` by this thread.
void on_release(const char* lock_class);

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Whether tracking is on: one relaxed atomic load, inline, so a caller
/// can skip a hook call altogether when it is off.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// The classes of the locks one thread of control holds, in acquisition
/// order.
using HeldClasses = std::vector<const char*>;

/// Swaps the calling thread's held classes with `parked`, where null
/// stands for none, so a set parked off the thread costs one pointer
/// while it is empty. A scheduler that runs many fibers on one thread
/// (runtime/sim.hpp) calls it as it switches a fiber in and again as the
/// fiber switches out, so each fiber's held locks stay its own, as a
/// thread's do. Callers test enabled() once around such a pair.
void exchange_held(std::unique_ptr<HeldClasses>& parked);

/// Invoked with a description naming the new edge, the existing path that
/// closes the cycle and the acquiring thread's held-lock stack. The
/// default handler prints the description to stderr and aborts. Returns
/// the previous handler. Tests install a throwing handler. When a handler
/// returns, the acquisition goes on and marks its class held, on the
/// thread path and the simulated one alike; the edge that closed the
/// cycle stays out of the graph.
using CycleHandler = void (*)(const std::string& description);
CycleHandler set_cycle_handler(CycleHandler handler);

/// Sorted, deduplicated "A -> B" lines (by class name) of every ordering
/// edge observed so far. Deterministic for a given set of edges.
std::string dump_hierarchy();

/// Number of distinct (class -> class) edges observed.
std::size_t edge_count();

/// Number of lock classes interned so far: the classes acquired, or held
/// by the acquiring thread, at a blocking acquisition while tracking was
/// on. Building a lock interns nothing.
std::size_t class_count();

/// Number of cycles reported since process start (or the last reset).
std::size_t cycles_reported();

/// Clears observed edges and the cycle count; interned classes survive.
/// Test isolation only — never call while other threads lock.
void reset_edges_for_testing();

}  // namespace cods::lock_order
