"""blocking — no OS-blocking primitive outside the CondVar/SimHook funnel.

ExecMode::kSimulate (docs/SIMULATION.md) runs every rank as a fiber on one
OS thread; it stays live only because every blocking operation in src/
diverts through cods::CondVar / cods::Mutex into the engine's virtual event
queue. One stray std::condition_variable, sleep_for or future::wait parks
the *only* OS thread: the simulation deadlocks, or wall time leaks into the
virtual clock and the cross-mode equivalence suite diverges. This check
bans OS-blocking primitives everywhere in src/ except the wrapper layer
itself (common/sync.hpp, common/blocking.*), resolving type aliases so
`using Waiter = std::condition_variable;` does not slip through where a
regex would go blind.

The raw standard mutex family (std::mutex, std::lock_guard, ...) is banned
on the same grounds: sync.hpp wraps it in the annotated Mutex / MutexLock
types, so Clang's -Wthread-safety analysis, the lock-order registry and the
SimHook see every acquisition. No separate rule bans the <mutex>-style
headers; every name they declare that src/ could block on is listed here.

Thread spawn/join sites of kPooled, the one thread-backed exec mode, are
real and deliberate — they are unreachable under kSimulate and carry
audited codslint-allow markers rather than a file-level exemption, so a
*new* spawn site still needs a review.
"""

from __future__ import annotations

from ..model import CodeIndex
from ..registry import Check, Finding, register
from . import util

# The wrapper layer: the only files allowed to touch blocking primitives.
EXEMPT_SUFFIXES = (
    "src/common/sync.hpp",
    "src/common/blocking.hpp",
    "src/common/blocking.cpp",
)

BANNED_TYPES = {
    "std::condition_variable":
        "raw condition variable bypasses the CondVar funnel: simulate mode "
        "cannot divert its waits (use cods::CondVar, src/common/sync.hpp)",
    "std::condition_variable_any":
        "raw condition variable bypasses the CondVar funnel "
        "(use cods::CondVar)",
    "std::future":
        "std::future::wait blocks the OS thread invisibly to the SimHook; "
        "use CondVar-based completion (see runtime/executor.hpp)",
    "std::promise":
        "promise/future waits block the OS thread invisibly to the SimHook",
    "std::latch":
        "std::latch::wait parks the OS thread outside the CondVar funnel",
    "std::barrier":
        "std::barrier waits park the OS thread outside the CondVar funnel",
    "std::counting_semaphore":
        "semaphore acquire parks the OS thread outside the CondVar funnel",
    "std::binary_semaphore":
        "semaphore acquire parks the OS thread outside the CondVar funnel",
}

RAW_MUTEX_MSG = ("raw standard mutex bypasses the Mutex funnel: simulate mode "
                 "cannot park a fiber on it and the lock-order registry never "
                 "sees it (use cods::Mutex / cods::SharedMutex, "
                 "src/common/sync.hpp)")
RAW_GUARD_MSG = ("raw standard lock guard bypasses the Mutex funnel (use "
                 "cods::MutexLock / WriterLock / ReaderLock, "
                 "src/common/sync.hpp)")
BANNED_TYPES.update({
    name: RAW_MUTEX_MSG
    for name in ("std::mutex", "std::shared_mutex", "std::recursive_mutex",
                 "std::timed_mutex", "std::recursive_timed_mutex",
                 "std::shared_timed_mutex")
})
BANNED_TYPES.update({
    name: RAW_GUARD_MSG
    for name in ("std::lock_guard", "std::scoped_lock", "std::unique_lock",
                 "std::shared_lock")
})

BANNED_CALLS = {
    "sleep_for": "sleeps the OS thread; simulate mode cannot advance past "
                 "it (model delays belong in the cost model)",
    "sleep_until": "sleeps the OS thread; simulate mode cannot advance "
                   "past it",
    "usleep": "sleeps the OS thread outside the CondVar funnel",
    "nanosleep": "sleeps the OS thread outside the CondVar funnel",
    "pthread_cond_wait": "raw pthread wait bypasses the CondVar funnel",
    "pthread_cond_timedwait": "raw pthread wait bypasses the CondVar funnel",
    "sem_wait": "raw semaphore wait bypasses the CondVar funnel",
    "async": "std::async spawns threads and its future join blocks "
             "invisibly to the executor and the SimHook",
}

# std::thread itself: spawning/joining OS threads is the business of
# kPooled's executor only; every site needs an audited allow marker.
THREAD_TYPE_MSG = ("raw std::thread in src/: only the kPooled exec mode's "
                   "executor may spawn OS threads, and each site needs an "
                   "audited allow marker (simulate mode must never reach it)")


@register
class BlockingCheck(Check):
    name = "blocking"
    description = ("OS-blocking primitives (condition_variable, raw "
                   "mutexes and guards, sleep, future/latch waits, raw "
                   "threads) banned outside the CondVar/SimHook funnel")

    def run(self, index: CodeIndex) -> list[Finding]:
        findings: list[Finding] = []
        skip = {p for p in index.files
                if p.endswith(EXEMPT_SUFFIXES)}
        banned_types = dict(BANNED_TYPES)
        banned_types["std::thread"] = THREAD_TYPE_MSG
        seen: set[tuple[str, int, str]] = set()
        for path, tok, canonical, msg in util.scan_qualified(
                index, banned_types, skip):
            key = (path, tok.line, canonical)
            if key in seen:
                continue
            seen.add(key)
            findings.append(Finding(self.name, path, tok.line, msg,
                                    canonical))
        for path, tok, name in util.scan_calls(
                index, set(BANNED_CALLS), skip):
            key = (path, tok.line, name)
            if key in seen:
                continue
            seen.add(key)
            findings.append(Finding(self.name, path, tok.line,
                                    BANNED_CALLS[name], name))
        # join()/detach() member calls: flagged when the receiver is a
        # std::thread (resolved) or unresolvable (range-for loop variables
        # over a thread vector — conservative, allow-markable).
        for defs in index.functions.values():
            for fn in defs:
                if fn.file.endswith(EXEMPT_SUFFIXES):
                    continue
                for call in fn.calls:
                    if call.name not in ("join", "detach") or not call.recv:
                        continue
                    recv_t = index.resolve_expr_type(call.recv, fn, call.tok)
                    head = index.type_head(recv_t) if recv_t else None
                    if head is not None and "thread" not in head and \
                            head != call.recv[0].text:
                        continue  # resolved to a non-thread type
                    key = (call.file, call.line, "join")
                    if key in seen:
                        continue
                    seen.add(key)
                    findings.append(Finding(
                        self.name, call.file, call.line,
                        "thread join/detach blocks the calling OS thread; "
                        "only the kPooled exec mode's executor may, under "
                        "an audited allow marker", f"{fn.qualname}"))
        findings.sort(key=lambda f: (f.file, f.line))
        return findings
