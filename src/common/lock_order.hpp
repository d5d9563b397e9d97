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

#include <cstddef>
#include <string>

namespace cods::lock_order {

/// Blocking acquisition of a lock of class `lock_class` about to start:
/// records a (held -> lock_class) edge for every lock the calling thread
/// already holds, runs cycle detection, and marks the class held. Call
/// *before* blocking on the underlying mutex so an inversion is reported
/// instead of deadlocking. `lock_class` must have static storage; classes
/// are compared by content.
void on_acquire(const char* lock_class);

/// Successful non-blocking acquisition: marks `lock_class` held without
/// recording ordering edges (try-lock cannot deadlock; out-of-order
/// try-lock is a legitimate deadlock-avoidance pattern).
void on_try_acquire(const char* lock_class);

/// Release: unmarks the most recent hold of `lock_class` by this thread.
void on_release(const char* lock_class);

bool enabled();
void set_enabled(bool on);

/// Invoked with a description naming the new edge, the existing path that
/// closes the cycle and the acquiring thread's held-lock stack. The
/// default handler prints the description to stderr and aborts. Returns
/// the previous handler. Tests install a throwing handler.
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
