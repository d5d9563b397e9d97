// Self-test of the pin check (pins.hpp): a unit passes only when every
// value it produced equals its pin and every pin under its prefix was
// produced.
//
//   pins_selftest        exits 0 when every check passes
#include <cmath>
#include <cstdio>
#include <sstream>

#include "pins.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

void expect_mismatches(const char* what, const Pins& pins,
                       const Outputs& unit, const std::string& prefix,
                       std::uint64_t want) {
  std::string first;
  const std::uint64_t got = pins.mismatches(unit, prefix, &first);
  if (got != want) {
    std::printf("FAIL %s: %llu mismatches, want %llu (first: %s)\n", what,
                static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(want), first.c_str());
    ++g_failures;
  }
}

Pins pins_of(const Outputs& outputs) {
  std::ostringstream text;
  for (const auto& [key, value] : outputs.items()) {
    text << key << ' ' << value << '\n';
  }
  std::istringstream in(text.str());
  return Pins::read(in);
}

Outputs scenario(const std::string& name, double retrieve_time) {
  Outputs out;
  out.add(name + ".app2.inter_net_bytes", std::uint64_t{4096});
  out.add(name + ".app2.retrieve_time", retrieve_time);
  return out;
}

}  // namespace

int main() {
  // Two scenarios whose names share a prefix up to the separator.
  Outputs pinned = scenario("fig16.cap.x1", 0.125);
  const Outputs other = scenario("fig16.cap.x16", 0.5);
  for (const auto& [key, value] : other.items()) pinned.add_text(key, value);
  const Pins pins = pins_of(pinned);

  expect_mismatches("identical unit", pins, scenario("fig16.cap.x1", 0.125),
                    "fig16.cap.x1.", 0);
  expect_mismatches("one-ULP change", pins,
                    scenario("fig16.cap.x1", std::nextafter(0.125, 1.0)),
                    "fig16.cap.x1.", 1);

  Outputs dropped;
  dropped.add("fig16.cap.x1.app2.inter_net_bytes", std::uint64_t{4096});
  expect_mismatches("pinned value missing", pins, dropped, "fig16.cap.x1.", 1);

  Outputs extra = scenario("fig16.cap.x1", 0.125);
  extra.add("fig16.cap.x1.app3.dht_queries", std::int64_t{7});
  expect_mismatches("unpinned value", pins, extra, "fig16.cap.x1.", 1);

  expect_mismatches("unknown unit", pins, scenario("fig16.cap.x2", 0.125),
                    "fig16.cap.x2.", 2);
  expect_mismatches("accept_all", Pins::accept_all(), dropped,
                    "fig16.cap.x1.", 0);

  if (g_failures != 0) {
    std::printf("pins self-test: %d failures\n", g_failures);
    return 1;
  }
  std::printf("pins self-test: ok\n");
  return 0;
}
