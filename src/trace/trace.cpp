#include "trace/trace.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cods {

namespace {

thread_local TraceContext* t_current = nullptr;

size_t round_up_pow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

const char* to_string(SpanCategory cat) {
  switch (cat) {
    case SpanCategory::kWave:
      return "wave";
    case SpanCategory::kTask:
      return "task";
    case SpanCategory::kGet:
      return "get";
    case SpanCategory::kPut:
      return "put";
    case SpanCategory::kPull:
      return "pull";
    case SpanCategory::kRpc:
      return "rpc";
    case SpanCategory::kCollective:
      return "collective";
    case SpanCategory::kRedistribute:
      return "redistribute";
    case SpanCategory::kLockWait:
      return "lock_wait";
    case SpanCategory::kTransferShm:
      return "transfer_shm";
    case SpanCategory::kTransferNet:
      return "transfer_net";
    case SpanCategory::kRecv:
      return "recv";
    case SpanCategory::kHealth:
      return "health";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// TraceRecorder::Ring
// ---------------------------------------------------------------------------

TraceRecorder::Ring::Ring(size_t capacity)
    : slots(round_up_pow2(std::max<size_t>(capacity, 2))),
      mask(slots.size() - 1) {}

bool TraceRecorder::Ring::try_push(const TraceSpan& span) {
  const u64 h = head.load(std::memory_order_relaxed);
  const u64 t = tail.load(std::memory_order_acquire);
  if (h - t >= slots.size()) return false;  // full
  slots[h & mask] = span;
  head.store(h + 1, std::memory_order_release);
  return true;
}

size_t TraceRecorder::Ring::drain(std::vector<TraceSpan>& out) {
  u64 t = tail.load(std::memory_order_relaxed);
  const u64 h = head.load(std::memory_order_acquire);
  const size_t n = static_cast<size_t>(h - t);
  for (; t != h; ++t) out.push_back(slots[t & mask]);
  tail.store(t, std::memory_order_release);
  return n;
}

// ---------------------------------------------------------------------------
// TraceRecorder
// ---------------------------------------------------------------------------

TraceRecorder::TraceRecorder(size_t ring_capacity)
    : ring_capacity_(ring_capacity) {}

TraceRecorder::Track* TraceRecorder::acquire_track(u64 key,
                                                   double start_clock) {
  CODS_REQUIRE(key < (u64{1} << (64 - kSeqBits)),
               "trace track key out of range");
  MutexLock lock(mutex_);
  auto it = tracks_.find(key);
  if (it == tracks_.end()) {
    it = tracks_.emplace(key, std::make_unique<Track>(key)).first;
  }
  it->second->clock = start_clock;
  return it->second.get();
}

void TraceRecorder::emit(Track& track, const TraceSpan& span) {
  // The ring pointer is written only by the owning (producer) thread —
  // here and in release_ring — and read by others only under mutex_, so
  // the unlocked fast path stays single-writer-safe.
  if (track.ring != nullptr && track.ring->try_push(span)) return;
  MutexLock lock(mutex_);
  if (track.ring == nullptr) {
    // First emit of this context: attach a pooled ring. Rings in flight
    // track live contexts, not total tracks.
    if (!free_rings_.empty()) {
      track.ring = std::move(free_rings_.back());
      free_rings_.pop_back();
    } else {
      track.ring = std::make_unique<Ring>(ring_capacity_);
    }
  } else {
    // Ring full: the producer drains its own ring into the span list.
    // The SPSC consumer side is only ever touched under mutex_, so this
    // cannot race with a concurrent flush().
    track.ring->drain(spans_);
  }
  CODS_CHECK(track.ring->try_push(span), "trace ring push after drain failed");
}

void TraceRecorder::release_ring(Track& track) {
  MutexLock lock(mutex_);
  if (track.ring == nullptr) return;
  track.ring->drain(spans_);
  free_rings_.push_back(std::move(track.ring));
}

void TraceRecorder::flush() {
  MutexLock lock(mutex_);
  for (auto& [key, track] : tracks_) {
    if (track->ring != nullptr) track->ring->drain(spans_);
  }
}

std::vector<TraceSpan> TraceRecorder::snapshot() {
  flush();
  MutexLock lock(mutex_);
  // A track's ids share their high bits (the track key), so tracks hold
  // disjoint id ranges, and each drain appended a run of one track's
  // spans in the order they were emitted. Gathering the runs track by
  // track leaves only the disorder nesting makes: a span is emitted when
  // it ends, after the spans it encloses. An insertion pass moves each
  // span back over its descendants, so it costs the spans' summed
  // nesting depth, not a sort.
  struct Run {
    u64 track;
    size_t begin;
    size_t end;
  };
  std::vector<Run> runs;
  for (size_t i = 0; i < spans_.size();) {
    const u64 track = spans_[i].id >> kSeqBits;
    size_t end = i + 1;
    while (end < spans_.size() && spans_[end].id >> kSeqBits == track) ++end;
    runs.push_back(Run{track, i, end});
    i = end;
  }
  std::stable_sort(runs.begin(), runs.end(), [](const Run& a, const Run& b) {
    return a.track < b.track;
  });
  std::vector<TraceSpan> out;
  out.reserve(spans_.size());
  const TraceSpan* drained = spans_.data();
  for (const Run& run : runs) {
    out.insert(out.end(), drained + run.begin, drained + run.end);
  }
  for (size_t i = 1; i < out.size(); ++i) {
    if (out[i].id > out[i - 1].id) continue;
    const TraceSpan span = out[i];
    size_t at = i;
    for (; at > 0 && out[at - 1].id > span.id; --at) out[at] = out[at - 1];
    out[at] = span;
  }
  return out;
}

double TraceRecorder::max_end_with_parent(u64 parent, double fallback) {
  MutexLock lock(mutex_);
  double best = fallback;
  for (const TraceSpan& s : spans_) {
    if (s.parent == parent) best = std::max(best, s.end());
  }
  return best;
}

size_t TraceRecorder::span_count() {
  flush();
  MutexLock lock(mutex_);
  return spans_.size();
}

// ---------------------------------------------------------------------------
// TraceContext
// ---------------------------------------------------------------------------

TraceContext::TraceContext(TraceRecorder& recorder, u64 track_key,
                           double start_clock, u64 root_parent, i32 app_id,
                           i32 node, i32 core)
    : recorder_(&recorder),
      track_(recorder.acquire_track(track_key, start_clock)),
      root_parent_(root_parent),
      app_id_(app_id),
      node_(node),
      core_(core),
      prev_(t_current) {
  t_current = this;
}

TraceContext::~TraceContext() {
  // Close anything left open (a task that threw mid-span) so the parent
  // chain in the exported stream stays well formed.
  while (!stack_.empty()) end();
  // Hand the track's ring back to the pool (drained): a finished rank's
  // track keeps only its id/seq state, not a ring.
  recorder_->release_ring(*track_);
  t_current = prev_;
}

TraceContext* TraceContext::current() { return t_current; }

TraceContext* TraceContext::exchange_current(TraceContext* next) {
  TraceContext* previous = t_current;
  t_current = next;
  return previous;
}

u64 TraceContext::next_id() {
  const u64 seq = ++track_->seq;
  CODS_CHECK(seq < (u64{1} << TraceRecorder::kSeqBits),
             "trace track exceeded its span-id budget");
  return (track_->key << TraceRecorder::kSeqBits) | seq;
}

void TraceContext::note_child_end(double end) {
  if (!stack_.empty()) {
    stack_.back().max_child_end = std::max(stack_.back().max_child_end, end);
  }
}

u64 TraceContext::begin(SpanCategory cat, u64 bytes, u32 detail) {
  OpenSpan open;
  open.id = next_id();
  open.begin = track_->clock;
  open.max_child_end = track_->clock;
  open.bytes = bytes;
  open.detail = detail;
  open.cat = cat;
  stack_.push_back(open);
  return open.id;
}

void TraceContext::end(double total, u64 bytes) {
  CODS_CHECK(!stack_.empty(), "trace end() without an open span");
  const OpenSpan open = stack_.back();
  stack_.pop_back();
  // The span ends no earlier than its children and the clock advance its
  // children produced; an explicit total (the operation's modelled time,
  // which may exceed the sum of child advances) can extend it further.
  double end_time = std::max(track_->clock, open.max_child_end);
  if (total >= 0.0) end_time = std::max(end_time, open.begin + total);

  TraceSpan span;
  span.id = open.id;
  span.parent = parent_id();
  span.begin = open.begin;
  span.duration = end_time - open.begin;
  span.bytes = bytes != 0 ? bytes : open.bytes;
  span.detail = open.detail;
  span.cat = open.cat;
  span.flags = TraceFlags::kSequential;
  span.cls = TrafficClass::kControl;
  span.app_id = app_id_;
  span.node = node_;
  span.core = core_;
  recorder_->emit(*track_, span);

  track_->clock = end_time;
  note_child_end(end_time);
}

void TraceContext::leaf(SpanCategory cat, double duration, u64 bytes,
                        TrafficClass cls, i32 app_id, bool sequential,
                        u8 extra_flags, u32 detail) {
  TraceSpan span;
  span.id = next_id();
  span.parent = parent_id();
  span.begin = track_->clock;
  span.duration = duration;
  span.bytes = bytes;
  span.detail = detail;
  span.cat = cat;
  span.flags = (sequential ? TraceFlags::kSequential : u8{0}) | extra_flags;
  span.cls = cls;
  span.app_id = app_id;
  span.node = node_;
  span.core = core_;
  recorder_->emit(*track_, span);

  if (sequential) track_->clock += duration;
  note_child_end(span.end());
}

void TraceContext::instant(SpanCategory cat, u64 bytes, u32 detail) {
  TraceSpan span;
  span.id = next_id();
  span.parent = parent_id();
  span.begin = track_->clock;
  span.duration = 0.0;
  span.bytes = bytes;
  span.detail = detail;
  span.cat = cat;
  span.flags = TraceFlags::kInstant;
  span.cls = TrafficClass::kControl;
  span.app_id = app_id_;
  span.node = node_;
  span.core = core_;
  recorder_->emit(*track_, span);
}

}  // namespace cods
