// Structured event tracing (docs/TRACING.md): a low-overhead recorder of
// typed spans on the deterministic virtual clock. Every instrumented
// operation (transfers, pulls, RPCs, collectives, lock waits, tasks,
// waves) emits a TraceSpan carrying its modelled begin/duration, byte
// count, traffic class and parent span, so a run can be exported as a
// Chrome trace_event timeline and analyzed for its critical path
// (trace/critical_path.hpp) — the per-operation view behind the paper's
// Fig. 14/15 phase decomposition.
//
// Concurrency model: each execution track (the workflow server, or one
// rank of one wave attempt) owns a per-thread lock-free SPSC ring that its
// thread pushes spans into; readers drain all rings into the recorder's
// span list under the recorder Mutex (docs/CONCURRENCY.md). A writer that
// fills its ring drains it itself under the same mutex, so no span is
// ever dropped. Span ids are deterministic — (track key << 20) | seq —
// which makes the exported stream a byte-identical function of the
// workload and seed, never of thread scheduling.
//
// When no TraceContext is installed on the current thread (tracing
// disabled), every instrumentation site reduces to one thread-local load
// and a branch.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.hpp"
#include "platform/metrics.hpp"

namespace cods {

/// What an interval of modelled time was spent on.
enum class SpanCategory : u8 {
  kWave,          ///< one scheduling wave (server track)
  kTask,          ///< one task's subroutine execution (rank track)
  kGet,           ///< a get operator (client get_seq/get_cont)
  kPut,           ///< a put operator (client put_seq/put_cont)
  kPull,          ///< a receiver-driven pull batch over HybridDart
  kRpc,           ///< small control round trips (DHT registration/query)
  kCollective,    ///< a runtime collective (barrier/bcast/gather/...)
  kRedistribute,  ///< meta-app M x N redistribution (send or recv side)
  kLockWait,      ///< LockService acquisition
  kTransferShm,   ///< one byte-accounted shared-memory movement (leaf)
  kTransferNet,   ///< one byte-accounted network movement (leaf)
  kRecv,          ///< message delivery (instant)
  kHealth,        ///< a health-monitor detection/settling sweep (server)
};

const char* to_string(SpanCategory cat);

/// TraceSpan::flags bits.
struct TraceFlags {
  /// The span advanced its track's virtual clock (its duration is part of
  /// the sequential time of its parent). Overlay leaves — the per-op view
  /// of a concurrent pull batch — clear this: they share the batch
  /// interval instead of summing.
  static constexpr u8 kSequential = 1;
  /// The span mirrors one TransferLog record (byte-ledger leaf); the
  /// set of kLedger spans reconciles exactly against the journal.
  static constexpr u8 kLedger = 2;
  /// Zero-duration marker event.
  static constexpr u8 kInstant = 4;
};

/// One completed traced interval. POD; 64 bytes.
struct TraceSpan {
  u64 id = 0;      ///< (track key << kSeqBits) | seq, seq starting at 1
  u64 parent = 0;  ///< enclosing span id; 0 = top level
  double begin = 0.0;     ///< virtual seconds
  double duration = 0.0;  ///< virtual seconds (0 for instants)
  u64 bytes = 0;
  u32 detail = 0;  ///< category-specific (e.g. packed source CoreLoc)
  SpanCategory cat = SpanCategory::kTask;
  u8 flags = 0;
  TrafficClass cls = TrafficClass::kControl;
  i32 app_id = 0;
  i32 node = -1;  ///< emitting track's placement (-1 = server)
  i32 core = -1;

  double end() const { return begin + duration; }
};

/// Packs a core location into TraceSpan::detail (source endpoint of a
/// transfer leaf). Node -1 (no location) packs to 0.
constexpr u32 pack_loc(i32 node, i32 core) {
  return (static_cast<u32>(node + 1) << 10) | static_cast<u32>(core + 1);
}

/// Collects spans from all tracks. Thread-safe; one instance per traced
/// workflow run (attach via WorkflowOptions::trace).
class TraceRecorder {
 public:
  static constexpr u32 kSeqBits = 20;  ///< max ~1M spans per track

  /// `ring_capacity` (rounded up to a power of two) bounds each track's
  /// in-flight spans; a full ring is drained by its writer, so capacity
  /// only tunes batching, not completeness. The default 64-span (4 KiB)
  /// ring keeps the pool of rings, one per concurrently live context,
  /// small (docs/TRACING.md).
  explicit TraceRecorder(size_t ring_capacity = 64);

  /// Drains every track's ring into the completed-span list.
  void flush();

  /// flush() + copy of all completed spans, sorted by id (deterministic
  /// canonical order).
  std::vector<TraceSpan> snapshot();

  /// Largest end() among completed spans whose parent is `parent`
  /// (`fallback` if none). Call flush() first — used by the engine to
  /// close a wave span over its tasks, which live on other tracks.
  double max_end_with_parent(u64 parent, double fallback);

  size_t span_count();

 private:
  friend class TraceContext;

  /// SPSC ring: produced by the owning track's thread, consumed under
  /// the recorder mutex (flush, or the producer itself on overflow).
  struct Ring {
    explicit Ring(size_t capacity);
    bool try_push(const TraceSpan& span);
    size_t drain(std::vector<TraceSpan>& out);

    std::vector<TraceSpan> slots;
    u64 mask = 0;
    std::atomic<u64> head{0};  ///< next write (producer)
    std::atomic<u64> tail{0};  ///< next read (consumer)
  };

  /// One execution track. `seq` and `clock` belong to the installing
  /// thread; handoff between threads (e.g. track creation under the
  /// mutex, then use by the owner) is synchronized by mutex_.
  ///
  /// The ring is pooled, not owned for life: it attaches lazily on the
  /// track's first emit and returns to the recorder's free pool when the
  /// owning TraceContext dies (drained first, so no span is lost). Rings
  /// in flight therefore track concurrently *live* contexts, and an
  /// idle or finished rank's track costs this struct — well under a
  /// cache line of payload — instead of a ring (4 KiB at the default
  /// capacity).
  struct Track {
    explicit Track(u64 key_) : key(key_) {}
    u64 key;
    u64 seq = 0;
    double clock = 0.0;
    std::unique_ptr<Ring> ring;  ///< null until first emit / after release
  };

  /// Creates (or resumes) the track for `key`, resetting its clock to
  /// `start_clock`. A resumed track keeps its seq so ids are never
  /// reused, even across runs sharing a recorder.
  Track* acquire_track(u64 key, double start_clock);

  /// Producer-side emit: pushes to the track's ring (attaching one from
  /// the pool on first use), draining it under the mutex when full.
  /// Never drops.
  void emit(Track& track, const TraceSpan& span);

  /// Drains and returns the track's ring to the free pool (TraceContext
  /// destruction; the track itself stays for id continuity).
  void release_ring(Track& track);

  const size_t ring_capacity_;
  mutable Mutex mutex_{"trace.recorder"};
  std::map<u64, std::unique_ptr<Track>> tracks_ CODS_GUARDED_BY(mutex_);
  std::vector<std::unique_ptr<Ring>> free_rings_ CODS_GUARDED_BY(mutex_);
  std::vector<TraceSpan> spans_ CODS_GUARDED_BY(mutex_);
};

/// Field widths of the workflow engine's rank-track keys, packed as
///   (wave_index + 1) << (kTraceAttemptBits + kTraceRankBits)
///   | attempt << kTraceRankBits | rank.
/// 21 rank bits cover the 1,310,720-rank weak-scaling point (the
/// previous 16-bit field collided with the attempt field past 65,535
/// ranks); with the 20-bit span sequence, 64 - 20 - 21 - 8 = 15 bits
/// remain for wave_index + 1, inside acquire_track's 44-bit key budget.
inline constexpr u32 kTraceRankBits = 21;
inline constexpr u32 kTraceAttemptBits = 8;

/// Packs one wave attempt's rank identity into a trace track key.
constexpr u64 pack_rank_track(i64 wave_index, i32 attempt, i32 rank) {
  return (static_cast<u64>(wave_index + 1)
          << (kTraceAttemptBits + kTraceRankBits)) |
         (static_cast<u64>(static_cast<u32>(attempt)) << kTraceRankBits) |
         static_cast<u64>(static_cast<u32>(rank));
}

/// Task-span detail: (app_id, rank) with the same widened rank field.
constexpr u32 pack_task_detail(i32 app_id, i32 rank) {
  return (static_cast<u32>(app_id) << kTraceRankBits) |
         static_cast<u32>(rank);
}

static_assert(kTraceRankBits + kTraceAttemptBits + TraceRecorder::kSeqBits <
                  64,
              "rank-track packing must leave room for the wave field");

/// Thread-local tracing state of one execution track: the open-span
/// stack and the track's virtual clock. Installing a TraceContext makes
/// the instrumentation sites on this thread live; destruction restores
/// the previous context (contexts nest).
///
/// Clock semantics: sequential spans advance the clock by their modelled
/// duration; containers close over max(explicit total, child advances),
/// so children always nest inside parents despite floating-point
/// rounding. Real wall time (blocking waits) never moves the clock.
class TraceContext {
 public:
  /// `track_key` must be unique per concurrent track (see the id scheme
  /// in the header comment); `start_clock` positions the track on the
  /// global timeline; `root_parent` is the span enclosing this track's
  /// top-level spans (the wave span for rank tracks; 0 for the server).
  TraceContext(TraceRecorder& recorder, u64 track_key, double start_clock,
               u64 root_parent, i32 app_id, i32 node, i32 core);
  ~TraceContext();
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  /// The context installed on the current thread (nullptr = disabled).
  static TraceContext* current();

  /// Replaces the thread's installed context with `next` and returns the
  /// previous one. ExecMode::kSimulate's engine (runtime/sim.hpp) calls
  /// this around every fiber switch so each simulated rank keeps its own
  /// track despite sharing one OS thread; ordinary code should install
  /// contexts by constructing them instead.
  static TraceContext* exchange_current(TraceContext* next);

  double clock() const { return track_->clock; }

  /// Opens a container span at the current clock; returns its id.
  u64 begin(SpanCategory cat, u64 bytes = 0, u32 detail = 0);

  /// Closes the innermost open span. `total` >= 0 snaps the duration to
  /// max(total, time advanced by children); -1 keeps the child advance.
  /// `bytes` replaces the span's byte count when nonzero.
  void end(double total = -1.0, u64 bytes = 0);

  /// Emits a completed leaf of `duration` at the current clock.
  /// `sequential` advances the clock past it; overlay leaves (the per-op
  /// members of a pull batch) leave the clock in place.
  void leaf(SpanCategory cat, double duration, u64 bytes, TrafficClass cls,
            i32 app_id, bool sequential, u8 extra_flags = 0, u32 detail = 0);

  /// Emits a zero-duration instant event at the current clock.
  void instant(SpanCategory cat, u64 bytes = 0, u32 detail = 0);

 private:
  struct OpenSpan {
    u64 id = 0;
    double begin = 0.0;
    double max_child_end = 0.0;
    u64 bytes = 0;
    u32 detail = 0;
    SpanCategory cat = SpanCategory::kTask;
  };

  u64 next_id();
  u64 parent_id() const {
    return stack_.empty() ? root_parent_ : stack_.back().id;
  }
  void note_child_end(double end);

  TraceRecorder* recorder_;
  TraceRecorder::Track* track_;
  std::vector<OpenSpan> stack_;
  u64 root_parent_;
  i32 app_id_;
  i32 node_;
  i32 core_;
  TraceContext* prev_;
};

/// RAII container span. No-op when tracing is disabled on this thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanCategory cat, u64 bytes = 0, u32 detail = 0)
      : ctx_(TraceContext::current()) {
    if (ctx_ != nullptr) ctx_->begin(cat, bytes, detail);
  }
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Closes with an explicit modelled total (see TraceContext::end).
  void close(double total = -1.0, u64 bytes = 0) {
    if (ctx_ != nullptr) {
      ctx_->end(total, bytes);
      ctx_ = nullptr;
    }
  }

 private:
  TraceContext* ctx_;
};

}  // namespace cods
