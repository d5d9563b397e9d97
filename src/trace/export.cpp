#include "trace/export.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <string_view>

#include "common/error.hpp"

namespace cods {

namespace {

const char* to_string(TrafficClass cls) {
  switch (cls) {
    case TrafficClass::kInterApp:
      return "inter";
    case TrafficClass::kIntraApp:
      return "intra";
    case TrafficClass::kControl:
      return "control";
  }
  return "unknown";
}

/// Formats one event into a stack buffer, appended to the output once.
/// The longest event (135 bytes of keys, two 12-character names, two
/// 24-character doubles, three 20-digit and four 11-character integers, a
/// 3-digit flags field) is under 330 bytes.
class EventWriter {
 public:
  void text(std::string_view s) {
    std::memcpy(end_, s.data(), s.size());
    end_ += s.size();
  }
  template <typename Int>
  void integer(Int v) {
    end_ = std::to_chars(end_, buf_ + sizeof(buf_), v).ptr;
  }
  // Round-trip precision: precision 17 in the general format is printf's
  // %.17g, which reproduces the exact double, making the export
  // byte-deterministic for bit-equal span streams.
  void real(double v) {
    end_ = std::to_chars(end_, buf_ + sizeof(buf_), v,
                         std::chars_format::general, 17)
               .ptr;
  }
  void append_to(std::string& out) const {
    out.append(buf_, static_cast<size_t>(end_ - buf_));
  }

 private:
  char buf_[512];
  char* end_ = buf_;
};

void append_event(std::string& out, const TraceSpan& s) {
  const bool instant = (s.flags & TraceFlags::kInstant) != 0;
  EventWriter w;
  w.text(R"({"name":")");
  w.text(to_string(s.cat));
  w.text(R"(","cat":")");
  w.text(to_string(s.cat));
  w.text(instant ? R"(","ph":"i","s":"t","ts":)" : R"(","ph":"X","ts":)");
  w.real(s.begin * 1e6);
  if (!instant) {
    w.text(R"(,"dur":)");
    w.real(s.duration * 1e6);
  }
  w.text(R"(,"pid":)");
  w.integer(s.node + 1);
  w.text(R"(,"tid":)");
  w.integer(s.core + 1);
  w.text(R"(,"args":{"id":)");
  w.integer(s.id);
  w.text(R"(,"parent":)");
  w.integer(s.parent);
  w.text(R"(,"bytes":)");
  w.integer(s.bytes);
  w.text(R"(,"app":)");
  w.integer(s.app_id);
  w.text(R"(,"class":")");
  w.text(to_string(s.cls));
  w.text(R"(","flags":)");
  w.integer(static_cast<unsigned>(s.flags));
  w.text(R"(,"detail":)");
  w.integer(s.detail);
  w.text("}}");
  w.append_to(out);
}

bool by_id(const TraceSpan& a, const TraceSpan& b) { return a.id < b.id; }

std::string format_sorted(const std::vector<TraceSpan>& sorted) {
  std::string out;
  // A traced wfgen run's events average about 220 bytes.
  out.reserve(sorted.size() * 224 + 64);
  out += R"({"displayTimeUnit":"ms","traceEvents":[)";
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) out += ",\n";
    append_event(out, sorted[i]);
  }
  out += "]}\n";
  return out;
}

}  // namespace

std::string to_chrome_trace(const std::vector<TraceSpan>& spans) {
  // snapshot() output is already in id order: format it in place.
  if (std::is_sorted(spans.begin(), spans.end(), by_id)) {
    return format_sorted(spans);
  }
  std::vector<TraceSpan> sorted = spans;
  std::sort(sorted.begin(), sorted.end(), by_id);
  return format_sorted(sorted);
}

std::string to_chrome_trace(TraceRecorder& recorder) {
  return to_chrome_trace(recorder.snapshot());
}

void write_chrome_trace(TraceRecorder& recorder, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  CODS_REQUIRE(out.good(), "cannot open trace output file " + path);
  out << to_chrome_trace(recorder);
  CODS_REQUIRE(out.good(), "failed writing trace output file " + path);
}

}  // namespace cods
