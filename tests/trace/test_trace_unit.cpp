// Unit tests of the tracing subsystem itself (src/trace/): recorder and
// ring mechanics, virtual-clock span semantics, the Chrome trace_event
// export, and the critical-path analyzer on hand-built span streams.
// Workflow-level integration lives in test_golden_trace.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/sync.hpp"
#include "runtime/sim.hpp"
#include "trace/critical_path.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

namespace cods {
namespace {

constexpr u64 kTrack = 7;
constexpr u64 id_of(u64 track, u64 seq) {
  return (track << TraceRecorder::kSeqBits) | seq;
}

TEST(TraceUnit, CategoryNamesAndLocPacking) {
  EXPECT_STREQ(to_string(SpanCategory::kWave), "wave");
  EXPECT_STREQ(to_string(SpanCategory::kTask), "task");
  EXPECT_STREQ(to_string(SpanCategory::kGet), "get");
  EXPECT_STREQ(to_string(SpanCategory::kPut), "put");
  EXPECT_STREQ(to_string(SpanCategory::kPull), "pull");
  EXPECT_STREQ(to_string(SpanCategory::kRpc), "rpc");
  EXPECT_STREQ(to_string(SpanCategory::kCollective), "collective");
  EXPECT_STREQ(to_string(SpanCategory::kRedistribute), "redistribute");
  EXPECT_STREQ(to_string(SpanCategory::kLockWait), "lock_wait");
  EXPECT_STREQ(to_string(SpanCategory::kTransferShm), "transfer_shm");
  EXPECT_STREQ(to_string(SpanCategory::kTransferNet), "transfer_net");
  EXPECT_STREQ(to_string(SpanCategory::kRecv), "recv");
  // Node -1 (the server) packs to core field only; distinct locations
  // pack distinctly.
  EXPECT_EQ(pack_loc(-1, -1), 0u);
  EXPECT_NE(pack_loc(0, 0), pack_loc(0, 1));
  EXPECT_NE(pack_loc(0, 0), pack_loc(1, 0));
}

TEST(TraceUnit, RankTrackPackingHasNoCollisionsAtMillionRanks) {
  // The engine keys one track per (wave, attempt, rank). The old
  // (<<24 | <<16) packing wrapped the 16-bit rank field at 65,536 ranks,
  // so rank 65,536 attempt 0 collided with rank 0 attempt 1. The widened
  // fields must keep every coordinate distinct through the 1,310,720-rank
  // weak-scaling point.
  const i32 kMaxRank = (1 << kTraceRankBits) - 1;  // 2,097,151
  EXPECT_GT(kMaxRank, 1310719) << "rank field too narrow for the 1M bench";

  // Boundary pairs that collided under the old scheme.
  EXPECT_NE(pack_rank_track(0, 0, 65536), pack_rank_track(0, 1, 0));
  EXPECT_NE(pack_rank_track(0, 0, 1 << 20), pack_rank_track(1, 0, 0));
  EXPECT_NE(pack_rank_track(0, 0, 1048576), pack_rank_track(0, 4, 0));

  // Adjacent coordinates stay adjacent in exactly one field.
  EXPECT_EQ(pack_rank_track(0, 0, 1048576) - pack_rank_track(0, 0, 1048575),
            1u);
  EXPECT_EQ(pack_rank_track(0, 1, 0) - pack_rank_track(0, 0, kMaxRank), 1u);

  // The maximal key the engine can produce still fits acquire_track's
  // 44-bit budget (64 - kSeqBits), with the max wave index that the
  // static_assert's 15 remaining bits allow.
  const i64 kMaxWave = (1 << (64 - TraceRecorder::kSeqBits -
                              kTraceAttemptBits - kTraceRankBits)) -
                       2;  // wave field stores wave_index + 1
  const u64 top = pack_rank_track(kMaxWave, (1 << kTraceAttemptBits) - 1,
                                  kMaxRank);
  EXPECT_LT(top, u64{1} << (64 - TraceRecorder::kSeqBits));
  TraceRecorder rec;
  EXPECT_NO_THROW({
    TraceContext ctx(rec, top, 0.0, 0, 0, 0, 0);  // inside the key budget
  });

  // Task-span details carry (app, rank) without aliasing at 1M ranks.
  EXPECT_NE(pack_task_detail(0, 1048576), pack_task_detail(1, 0));
  EXPECT_NE(pack_task_detail(1, 1048576), pack_task_detail(1, 1048575));
}

TEST(TraceUnit, MillionRankTrackIdsRoundTrip) {
  // A track at the widened key's rank boundary still mints ids as
  // (key << kSeqBits) | seq.
  const u64 key = pack_rank_track(2, 1, 1310719);
  TraceRecorder rec;
  TraceContext ctx(rec, key, 0.0, 0, 1, 0, 0);
  const u64 id = ctx.begin(SpanCategory::kTask);
  ctx.end();
  EXPECT_EQ(id >> TraceRecorder::kSeqBits, key);
  EXPECT_EQ(id & ((u64{1} << TraceRecorder::kSeqBits) - 1), 1u);
}

TEST(TraceUnit, IdsAreTrackShiftedSequence) {
  TraceRecorder rec;
  TraceContext ctx(rec, kTrack, 0.0, 0, 1, 2, 3);
  const u64 a = ctx.begin(SpanCategory::kGet);
  ctx.end();
  const u64 b = ctx.begin(SpanCategory::kPut);
  ctx.end();
  EXPECT_EQ(a, id_of(kTrack, 1));
  EXPECT_EQ(b, id_of(kTrack, 2));
}

TEST(TraceUnit, SequentialLeafAdvancesClockOverlayDoesNot) {
  TraceRecorder rec;
  TraceContext ctx(rec, kTrack, 10.0, 0, 1, 0, 0);
  ctx.leaf(SpanCategory::kTransferShm, 2.0, 100, TrafficClass::kInterApp, 1,
           /*sequential=*/true);
  EXPECT_DOUBLE_EQ(ctx.clock(), 12.0);
  ctx.leaf(SpanCategory::kTransferNet, 5.0, 200, TrafficClass::kInterApp, 1,
           /*sequential=*/false);
  EXPECT_DOUBLE_EQ(ctx.clock(), 12.0);  // overlay shares the interval

  const auto spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_DOUBLE_EQ(spans[0].begin, 10.0);
  EXPECT_DOUBLE_EQ(spans[0].duration, 2.0);
  EXPECT_TRUE(spans[0].flags & TraceFlags::kSequential);
  EXPECT_FALSE(spans[1].flags & TraceFlags::kSequential);
  EXPECT_EQ(spans[0].node, 0);
  EXPECT_EQ(spans[0].core, 0);
}

TEST(TraceUnit, ContainerCoversChildrenAndExplicitTotal) {
  TraceRecorder rec;
  TraceContext ctx(rec, kTrack, 0.0, 0, 1, 0, 0);
  // Children advance 2.0; an explicit total of 1.0 must not shrink the
  // container below its children.
  const u64 outer = ctx.begin(SpanCategory::kGet);
  ctx.leaf(SpanCategory::kTransferShm, 2.0, 8, TrafficClass::kInterApp, 1,
           true);
  ctx.end(/*total=*/1.0);
  // An explicit total larger than the child advance extends the span.
  const u64 tall = ctx.begin(SpanCategory::kRpc);
  ctx.end(/*total=*/5.0);

  const auto spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  const TraceSpan* outer_span = nullptr;
  const TraceSpan* tall_span = nullptr;
  for (const TraceSpan& s : spans) {
    if (s.id == outer) outer_span = &s;
    if (s.id == tall) tall_span = &s;
  }
  ASSERT_NE(outer_span, nullptr);
  ASSERT_NE(tall_span, nullptr);
  EXPECT_DOUBLE_EQ(outer_span->duration, 2.0);
  EXPECT_DOUBLE_EQ(tall_span->begin, 2.0);
  EXPECT_DOUBLE_EQ(tall_span->duration, 5.0);
}

TEST(TraceUnit, NestedSpansRecordParentChain) {
  TraceRecorder rec;
  TraceContext ctx(rec, kTrack, 0.0, /*root_parent=*/42, 1, 0, 0);
  const u64 outer = ctx.begin(SpanCategory::kTask);
  const u64 inner = ctx.begin(SpanCategory::kGet);
  ctx.leaf(SpanCategory::kTransferShm, 1.0, 4, TrafficClass::kInterApp, 1,
           true);
  ctx.end();
  ctx.end();

  const auto spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  for (const TraceSpan& s : spans) {
    if (s.id == outer) {
      EXPECT_EQ(s.parent, 42u);
    }
    if (s.id == inner) {
      EXPECT_EQ(s.parent, outer);
    }
    if (s.cat == SpanCategory::kTransferShm) {
      EXPECT_EQ(s.parent, inner);
    }
  }
}

TEST(TraceUnit, InstantHasZeroDurationAndFlag) {
  TraceRecorder rec;
  TraceContext ctx(rec, kTrack, 3.0, 0, 1, 0, 0);
  ctx.instant(SpanCategory::kRecv, 64, 5);
  EXPECT_DOUBLE_EQ(ctx.clock(), 3.0);
  const auto spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_DOUBLE_EQ(spans[0].duration, 0.0);
  EXPECT_TRUE(spans[0].flags & TraceFlags::kInstant);
  EXPECT_EQ(spans[0].bytes, 64u);
  EXPECT_EQ(spans[0].detail, 5u);
}

TEST(TraceUnit, DestructorClosesLeftoverSpans) {
  TraceRecorder rec;
  {
    TraceContext ctx(rec, kTrack, 0.0, 0, 1, 0, 0);
    ctx.begin(SpanCategory::kTask);
    ctx.begin(SpanCategory::kGet);
    // A task that throws leaves spans open; the context must still emit
    // them so the exported stream stays well formed.
  }
  EXPECT_EQ(TraceContext::current(), nullptr);
  EXPECT_EQ(rec.snapshot().size(), 2u);
}

TEST(TraceUnit, ContextsNestAndRestore) {
  TraceRecorder rec;
  EXPECT_EQ(TraceContext::current(), nullptr);
  {
    TraceContext outer(rec, 1, 0.0, 0, 1, 0, 0);
    EXPECT_EQ(TraceContext::current(), &outer);
    {
      TraceContext inner(rec, 2, 0.0, 0, 2, 0, 1);
      EXPECT_EQ(TraceContext::current(), &inner);
    }
    EXPECT_EQ(TraceContext::current(), &outer);
  }
  EXPECT_EQ(TraceContext::current(), nullptr);
}

TEST(TraceUnit, TinyRingNeverDropsSpans) {
  TraceRecorder rec(/*ring_capacity=*/2);
  TraceContext ctx(rec, kTrack, 0.0, 0, 1, 0, 0);
  for (int i = 0; i < 100; ++i) {
    ctx.leaf(SpanCategory::kTransferShm, 0.001, static_cast<u64>(i),
             TrafficClass::kIntraApp, 1, true);
  }
  const auto spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 100u);  // overflow drained, nothing lost
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].bytes, static_cast<u64>(i));  // snapshot is id-sorted
  }
}

TEST(TraceUnit, SnapshotOrdersInterleavedDrainsAndNestedSpans) {
  // Tracks drain in an order unrelated to their ids (a two-span ring
  // drains track 9 while tracks 2 and 5 still hold theirs), and a span
  // is emitted when it ends, after the spans nested in it: every
  // snapshot still lists each span once, in id order.
  TraceRecorder rec(/*ring_capacity=*/2);
  TraceContext high(rec, 9, 0.0, 0, 1, 0, 0);
  TraceContext low(rec, 2, 0.0, 0, 1, 1, 0);
  TraceContext mid(rec, 5, 0.0, 0, 1, 2, 0);
  std::vector<u64> ids;
  size_t emitted = 0;
  for (int round = 0; round < 6; ++round) {
    mid.begin(SpanCategory::kGet);
    mid.begin(SpanCategory::kPull);
    for (TraceContext* ctx : {&high, &mid, &low, &high, &high}) {
      ctx->leaf(SpanCategory::kTransferShm, 0.001, emitted++,
                TrafficClass::kIntraApp, 1, true);
    }
    mid.end();
    mid.end();
    emitted += 2;
    if (round % 2 == 0) continue;  // snapshot every other round
    const auto spans = rec.snapshot();
    ASSERT_EQ(spans.size(), emitted);
    ids.clear();
    for (const TraceSpan& span : spans) ids.push_back(span.id);
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end())) << "round " << round;
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  }
  EXPECT_EQ(ids.front(), id_of(2, 1));
  EXPECT_EQ(ids.back(), id_of(9, 18));
  EXPECT_EQ(ids[6], id_of(5, 1));  // the first round's outer kGet span
}

TEST(TraceUnit, ResumedTrackKeepsSequenceAndClockResets) {
  TraceRecorder rec;
  u64 first;
  {
    TraceContext ctx(rec, kTrack, 0.0, 0, 1, 0, 0);
    first = ctx.begin(SpanCategory::kTask);
    ctx.end(1.0);
  }
  {
    TraceContext ctx(rec, kTrack, 0.0, 0, 1, 0, 0);
    EXPECT_DOUBLE_EQ(ctx.clock(), 0.0);  // start_clock repositions
    const u64 second = ctx.begin(SpanCategory::kTask);
    ctx.end(1.0);
    EXPECT_GT(second, first);  // seq resumed: ids never reused
  }
  EXPECT_EQ(rec.snapshot().size(), 2u);
}

TEST(TraceUnit, MaxEndWithParentFallsBack) {
  TraceRecorder rec;
  TraceContext ctx(rec, kTrack, 0.0, /*root_parent=*/9, 1, 0, 0);
  ctx.begin(SpanCategory::kTask);
  ctx.end(2.5);
  rec.flush();
  EXPECT_DOUBLE_EQ(rec.max_end_with_parent(9, 0.0), 2.5);
  EXPECT_DOUBLE_EQ(rec.max_end_with_parent(1234, 7.0), 7.0);
  EXPECT_EQ(rec.span_count(), 1u);
}

TEST(TraceUnit, DefaultRingsKeepEverySpanUnderManyLiveFibers) {
  // 200 simulate fibers each hold a live context (and so a pooled ring)
  // at once while one of them emits ten default rings' worth of spans:
  // every overflow drains into the span list, none is dropped.
  constexpr i32 kFibers = 200;
  constexpr int kBurst = 10 * 64 + 7;
  TraceRecorder rec;
  Mutex mu{"test.trace.gate"};
  CondVar all_started;
  i32 started = 0;
  SimEngine sim;
  sim.run(kFibers, [&](i32 rank) {
    TraceContext ctx(rec, static_cast<u64>(rank) + 1, 0.0, 0, 1, rank, 0);
    ctx.leaf(SpanCategory::kTask, 1.0, 8, TrafficClass::kInterApp, 1, true);
    {
      MutexLock lock(mu);
      if (++started == kFibers) all_started.notify_all();
      all_started.wait(lock, [&] { return started == kFibers; });
    }
    if (rank == kFibers / 2) {
      for (int i = 0; i < kBurst; ++i) {
        ctx.leaf(SpanCategory::kPull, 0.5, static_cast<u64>(i),
                 TrafficClass::kInterApp, 1, true);
      }
    }
    ctx.instant(SpanCategory::kRecv);
  });
  const auto spans = rec.snapshot();
  ASSERT_EQ(spans.size(), static_cast<size_t>(2 * kFibers + kBurst));
  EXPECT_TRUE(std::is_sorted(
      spans.begin(), spans.end(),
      [](const TraceSpan& a, const TraceSpan& b) { return a.id < b.id; }));
  // Each track's sequence is 1..n without gaps.
  size_t i = 0;
  for (i32 rank = 0; rank < kFibers; ++rank) {
    const u64 track = static_cast<u64>(rank) + 1;
    const u64 n = rank == kFibers / 2 ? kBurst + 2 : 2;
    for (u64 seq = 1; seq <= n; ++seq, ++i) {
      ASSERT_EQ(spans[i].id, id_of(track, seq)) << "rank " << rank;
    }
  }
}

// ---------------------------------------------------------------------------
// Chrome export
// ---------------------------------------------------------------------------

TEST(TraceExport, JsonShapeAndDeterminism) {
  TraceRecorder rec;
  {
    TraceContext ctx(rec, kTrack, 0.0, 0, 3, 1, 2);
    ctx.begin(SpanCategory::kGet, 128);
    ctx.leaf(SpanCategory::kTransferNet, 0.5, 128, TrafficClass::kInterApp, 3,
             true, TraceFlags::kLedger);
    ctx.end();
    ctx.instant(SpanCategory::kRecv, 16);
  }
  const auto spans = rec.snapshot();
  const std::string json = to_chrome_trace(spans);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find(R"("ph":"X")"), std::string::npos);
  EXPECT_NE(json.find(R"("ph":"i")"), std::string::npos);
  EXPECT_NE(json.find(R"("name":"transfer_net")"), std::string::npos);
  EXPECT_NE(json.find(R"("class":"inter")"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);  // node 1 -> pid 2
  EXPECT_NE(json.find("\"tid\":3"), std::string::npos);  // core 2 -> tid 3
  // Canonical: reordering the input does not change the output.
  std::vector<TraceSpan> shuffled(spans.rbegin(), spans.rend());
  EXPECT_EQ(to_chrome_trace(shuffled), json);
  EXPECT_EQ(to_chrome_trace(rec), json);
}

TEST(TraceExport, WriteToFileRoundTrips) {
  TraceRecorder rec;
  {
    TraceContext ctx(rec, kTrack, 0.0, 0, 1, 0, 0);
    ctx.begin(SpanCategory::kTask);
    ctx.end(1.0);
  }
  const std::string path = testing::TempDir() + "cods_trace_unit.json";
  write_chrome_trace(rec, path);
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), to_chrome_trace(rec));
  std::remove(path.c_str());
  EXPECT_THROW(write_chrome_trace(rec, "/nonexistent-dir/trace.json"), Error);
}

/// The exporter's earlier snprintf/to_string formatter, kept as the
/// byte-level reference for the to_chars one.
std::string chrome_trace_via_printf(std::vector<TraceSpan> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const TraceSpan& a, const TraceSpan& b) { return a.id < b.id; });
  const auto append_double = [](std::string& out, double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
  };
  const auto class_name = [](TrafficClass cls) {
    switch (cls) {
      case TrafficClass::kInterApp:
        return "inter";
      case TrafficClass::kIntraApp:
        return "intra";
      case TrafficClass::kControl:
        return "control";
    }
    return "unknown";
  };
  std::string out = R"({"displayTimeUnit":"ms","traceEvents":[)";
  for (size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& s = spans[i];
    if (i > 0) out += ",\n";
    const bool instant = (s.flags & TraceFlags::kInstant) != 0;
    out += R"({"name":")";
    out += to_string(s.cat);
    out += R"(","cat":")";
    out += to_string(s.cat);
    out += instant ? R"(","ph":"i","s":"t","ts":)" : R"(","ph":"X","ts":)";
    append_double(out, s.begin * 1e6);
    if (!instant) {
      out += R"(,"dur":)";
      append_double(out, s.duration * 1e6);
    }
    out += R"(,"pid":)";
    out += std::to_string(s.node + 1);
    out += R"(,"tid":)";
    out += std::to_string(s.core + 1);
    out += R"(,"args":{"id":)";
    out += std::to_string(s.id);
    out += R"(,"parent":)";
    out += std::to_string(s.parent);
    out += R"(,"bytes":)";
    out += std::to_string(s.bytes);
    out += R"(,"app":)";
    out += std::to_string(s.app_id);
    out += R"(,"class":")";
    out += class_name(s.cls);
    out += R"(","flags":)";
    out += std::to_string(s.flags);
    out += R"(,"detail":)";
    out += std::to_string(s.detail);
    out += "}}";
  }
  out += "]}\n";
  return out;
}

TEST(ChromeExport, MatchesPrintfReference) {
  using limits = std::numeric_limits<double>;
  // Exported values are seconds * 1e6, so the list holds edges both as
  // seconds and as microseconds / 1e6. %.17g switches to the exponent
  // form below 1e-4 and from 1e17 on.
  std::vector<double> edges = {
      0.0, -0.0, limits::denorm_min(), limits::min() / 3, limits::min(),
      1e-7, 1e17, 1e22, -1e22, 1e-4 / 1e6, 1e-5 / 1e6, 9.99999e-5 / 1e6,
      1e17 / 1e6, 1e16 / 1e6, std::nextafter(1e17, 0.0) / 1e6,
      std::nextafter(1e11, 0.0), 1e11, 0.1, 1.0 / 3.0, 123456.789, -2.5,
      limits::max() / 1e7};
  Rng rng(23);
  while (edges.size() < 200) {
    const double v = std::bit_cast<double>(rng());
    if (std::isfinite(v)) edges.push_back(v);
  }
  std::vector<TraceSpan> spans;
  for (size_t i = 0; i < 600; ++i) {
    TraceSpan s;
    s.id = i == 0 ? std::numeric_limits<u64>::max() : rng() % 4096 * 4096 + i;
    s.parent = i % 7 == 0 ? std::numeric_limits<u64>::max() : rng() >> (i % 64);
    s.begin = edges[i % edges.size()];
    s.duration = edges[(i * 7 + 3) % edges.size()];
    s.bytes = i % 5 == 0 ? std::numeric_limits<u64>::max() : rng() >> (i % 64);
    s.detail = static_cast<u32>(rng());
    s.cat = static_cast<SpanCategory>(rng() % 13);
    s.flags = static_cast<u8>(rng());  // kInstant set in about half
    s.cls = static_cast<TrafficClass>(rng() % 3);
    s.app_id = static_cast<i32>(rng());
    s.node = i % 3 == 0 ? -1 : static_cast<i32>(rng() % 5000);
    s.core = i % 4 == 0 ? -1 : static_cast<i32>(rng() % 64);
    spans.push_back(s);
  }
  // Unsorted input (the max id leads), then the same spans in id order.
  const std::string reference = chrome_trace_via_printf(spans);
  EXPECT_EQ(to_chrome_trace(spans), reference);
  std::sort(spans.begin(), spans.end(),
            [](const TraceSpan& a, const TraceSpan& b) { return a.id < b.id; });
  EXPECT_EQ(to_chrome_trace(spans), reference);
  EXPECT_EQ(to_chrome_trace(std::vector<TraceSpan>{}),
            chrome_trace_via_printf({}));
}

// ---------------------------------------------------------------------------
// Critical-path analyzer on a hand-built stream
// ---------------------------------------------------------------------------

TraceSpan make_span(u64 id, u64 parent, double begin, double duration,
                    SpanCategory cat, u8 flags = TraceFlags::kSequential) {
  TraceSpan s;
  s.id = id;
  s.parent = parent;
  s.begin = begin;
  s.duration = duration;
  s.cat = cat;
  s.flags = flags;
  return s;
}

TEST(CriticalPath, AttributesSelfTimesAndPicksLastEndingTask) {
  // wave [0, 10): task A [0, 4) with a 1s shm ledger leaf; task B [0, 9)
  // with a 2s lock wait and a 3s net ledger leaf. B ends last -> critical.
  std::vector<TraceSpan> spans;
  spans.push_back(make_span(1, 0, 0.0, 10.0, SpanCategory::kWave));
  spans.push_back(make_span(100, 1, 0.0, 4.0, SpanCategory::kTask));
  TraceSpan shm = make_span(101, 100, 0.0, 1.0, SpanCategory::kTransferShm,
                            TraceFlags::kSequential | TraceFlags::kLedger);
  shm.bytes = 1000;
  shm.cls = TrafficClass::kInterApp;
  shm.app_id = 1;
  spans.push_back(shm);
  spans.push_back(make_span(200, 1, 0.0, 9.0, SpanCategory::kTask));
  spans.push_back(make_span(201, 200, 0.0, 2.0, SpanCategory::kLockWait));
  TraceSpan net = make_span(202, 200, 2.0, 3.0, SpanCategory::kTransferNet,
                            TraceFlags::kSequential | TraceFlags::kLedger);
  net.bytes = 5000;
  net.cls = TrafficClass::kIntraApp;
  net.app_id = 2;
  spans.push_back(net);

  const TraceAnalysis analysis = analyze_trace(spans);
  ASSERT_EQ(analysis.waves.size(), 1u);
  const WaveBreakdown& wave = analysis.waves[0];
  EXPECT_EQ(wave.span_id, 1u);
  EXPECT_EQ(wave.critical_task, 200u);
  EXPECT_DOUBLE_EQ(analysis.total_time, 10.0);
  EXPECT_DOUBLE_EQ(analysis.critical_length, 9.0);
  // Serialized attribution: A self 3 + B self 4 + wave self 10-(4+9 -> 0
  // clamped? no: children of the wave sum 13 > 10, clamps to 0).
  EXPECT_DOUBLE_EQ(wave.time.shm, 1.0);
  EXPECT_DOUBLE_EQ(wave.time.net, 3.0);
  EXPECT_DOUBLE_EQ(wave.time.lock_wait, 2.0);
  EXPECT_DOUBLE_EQ(wave.time.compute, 3.0 + 4.0);
  // Critical subtree: B only (self 4 compute, 2 lock, 3 net).
  EXPECT_DOUBLE_EQ(wave.critical_time.compute, 4.0);
  EXPECT_DOUBLE_EQ(wave.critical_time.net, 3.0);
  EXPECT_DOUBLE_EQ(wave.critical_time.lock_wait, 2.0);
  EXPECT_DOUBLE_EQ(wave.critical_time.shm, 0.0);
  EXPECT_LE(wave.critical_time.total(), wave.duration + 1e-12);
  // Ledger totals and per-app byte rows.
  EXPECT_EQ(analysis.shm_bytes, 1000u);
  EXPECT_EQ(analysis.net_bytes, 5000u);
  EXPECT_EQ(analysis.ledger_spans, 2u);
  ASSERT_EQ(wave.apps.size(), 2u);
  EXPECT_EQ(wave.apps[0].app_id, 1);
  EXPECT_EQ(wave.apps[0].inter_shm, 1000u);
  EXPECT_EQ(wave.apps[1].app_id, 2);
  EXPECT_EQ(wave.apps[1].intra_net, 5000u);
  // The critical path alternates wave id, task id.
  ASSERT_EQ(analysis.critical_path.size(), 2u);
  EXPECT_EQ(analysis.critical_path[0], 1u);
  EXPECT_EQ(analysis.critical_path[1], 200u);
  const std::string report = analysis.report();
  EXPECT_NE(report.find("1 wave(s)"), std::string::npos);
  EXPECT_NE(report.find("critical path"), std::string::npos);
}

TEST(CriticalPath, PullSelfSplitsByOverlayByteMix) {
  // task [0, 4): pull [0, 4) whose overlay ops moved 3 net bytes for every
  // 1 shm byte -> the 4s batch interval splits 3s net / 1s shm.
  std::vector<TraceSpan> spans;
  spans.push_back(make_span(1, 0, 0.0, 4.0, SpanCategory::kTask));
  spans.push_back(make_span(2, 1, 0.0, 4.0, SpanCategory::kPull));
  TraceSpan shm = make_span(3, 2, 0.0, 2.0, SpanCategory::kTransferShm,
                            TraceFlags::kLedger);  // overlay: not sequential
  shm.bytes = 100;
  spans.push_back(shm);
  TraceSpan net = make_span(4, 2, 0.0, 4.0, SpanCategory::kTransferNet,
                            TraceFlags::kLedger);
  net.bytes = 300;
  spans.push_back(net);

  // No wave: attribute via a synthetic wave wrapper instead.
  spans.push_back(make_span(0x100, 0, 0.0, 4.0, SpanCategory::kWave));
  for (TraceSpan& s : spans) {
    if (s.id == 1) s.parent = 0x100;
  }
  const TraceAnalysis analysis = analyze_trace(spans);
  ASSERT_EQ(analysis.waves.size(), 1u);
  const CategorySeconds& t = analysis.waves[0].time;
  EXPECT_DOUBLE_EQ(t.net, 3.0);
  EXPECT_DOUBLE_EQ(t.shm, 1.0);
  EXPECT_DOUBLE_EQ(t.compute, 0.0);  // task fully covered by the pull
}

TEST(CriticalPath, PullWithoutBytesIsControl) {
  std::vector<TraceSpan> spans;
  spans.push_back(make_span(1, 0, 0.0, 2.0, SpanCategory::kWave));
  spans.push_back(make_span(2, 1, 0.0, 2.0, SpanCategory::kTask));
  spans.push_back(make_span(3, 2, 0.0, 1.5, SpanCategory::kPull));
  const TraceAnalysis analysis = analyze_trace(spans);
  ASSERT_EQ(analysis.waves.size(), 1u);
  EXPECT_DOUBLE_EQ(analysis.waves[0].time.control, 1.5);
  EXPECT_DOUBLE_EQ(analysis.waves[0].time.compute, 0.5);
}

TEST(CriticalPath, CategorySecondsAccumulate) {
  CategorySeconds a{1, 2, 3, 4, 5, 6};
  const CategorySeconds b{10, 20, 30, 40, 50, 60};
  a += b;
  EXPECT_DOUBLE_EQ(a.compute, 11);
  EXPECT_DOUBLE_EQ(a.control, 66);
  EXPECT_DOUBLE_EQ(a.total(), 11 + 22 + 33 + 44 + 55 + 66);
}

TEST(CriticalPath, ReconciliationMatchesAndDiagnoses) {
  std::vector<TraceSpan> spans;
  TraceSpan leaf = make_span(1, 0, 0.0, 0.25, SpanCategory::kTransferNet,
                             TraceFlags::kSequential | TraceFlags::kLedger);
  leaf.bytes = 4096;
  leaf.cls = TrafficClass::kInterApp;
  leaf.app_id = 3;
  spans.push_back(leaf);
  spans.push_back(make_span(2, 0, 0.0, 1.0, SpanCategory::kTask));  // ignored

  TransferRecord rec;
  rec.bytes = 4096;
  rec.via_network = true;
  rec.cls = TrafficClass::kInterApp;
  rec.app_id = 3;
  rec.model_time = 0.25;
  EXPECT_EQ(reconcile_with_transfer_log(spans, {rec}), "");

  rec.bytes = 4097;
  const std::string diag = reconcile_with_transfer_log(spans, {rec});
  EXPECT_NE(diag.find("does not reconcile"), std::string::npos);
  EXPECT_NE(diag.find("divergence"), std::string::npos);

  // One multiset a prefix of the other: the first entry past the common
  // prefix is named, from whichever side has it.
  rec.bytes = 4096;
  EXPECT_EQ(reconcile_with_transfer_log(spans, {}),
            "trace ledger does not reconcile with the transfer log: 1 "
            "ledger span(s) vs 0 journal record(s); first divergence at #0: "
            "span(app=3,cls=0,net=1,bytes=4096,t=0.25) has no journal "
            "record");
  EXPECT_EQ(reconcile_with_transfer_log(spans, {rec, rec}),
            "trace ledger does not reconcile with the transfer log: 1 "
            "ledger span(s) vs 2 journal record(s); first divergence at #1: "
            "log(app=3,cls=0,net=1,bytes=4096,t=0.25) has no ledger span");
}

TEST(CriticalPath, EmptyStreamAnalyzesToZero) {
  const TraceAnalysis analysis = analyze_trace({});
  EXPECT_EQ(analysis.waves.size(), 0u);
  EXPECT_DOUBLE_EQ(analysis.total_time, 0.0);
  EXPECT_FALSE(analysis.report().empty());
}

}  // namespace
}  // namespace cods
