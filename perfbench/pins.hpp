// Pinned outputs: every workload lists what it computed as named values,
// and each value must equal its pin bit for bit. Doubles are written as
// hexadecimal floats, so a one-ULP change is a different string.
#pragma once

#include <cstdint>
#include <istream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// The named outputs of one batch, in the order they were added.
class Outputs {
 public:
  void add(const std::string& key, std::uint64_t value);
  void add(const std::string& key, std::int64_t value);
  void add(const std::string& key, double value);
  void add_text(const std::string& key, std::string value);

  const std::vector<std::pair<std::string, std::string>>& items() const {
    return items_;
  }
  bool operator==(const Outputs&) const = default;

 private:
  std::vector<std::pair<std::string, std::string>> items_;
};

/// 64-bit FNV-1a over a byte string: the per-scenario digest.
class Digest {
 public:
  void add(const void* data, std::size_t size);
  template <typename T>
  void add_value(const T& value) {
    add(&value, sizeof(value));
  }
  void add_text(const std::string& text) {
    add_value(text.size());
    add(text.data(), text.size());
  }
  std::string hex() const;

 private:
  std::uint64_t state_ = 1469598103934665603ULL;
};

/// A pin file: one "key value" line per pinned output.
class Pins {
 public:
  /// Reads `path`; a missing file pins nothing (every output mismatches).
  static Pins load(const std::string& path);
  /// Reads "key value" lines from `in`.
  static Pins read(std::istream& in);
  /// Pins that accept every output: the run that writes the pin file.
  static Pins accept_all();

  /// Number of outputs whose value differs from its pin or has no pin,
  /// plus the pinned keys starting with `prefix` that `outputs` lacks; the
  /// first such is described in `first`. `prefix` names the unit the
  /// outputs belong to (a scenario, a rung), so a unit that stops
  /// producing a pinned value fails too.
  std::uint64_t mismatches(const Outputs& outputs, const std::string& prefix,
                           std::string* first) const;

  /// Adds or replaces the pins of `outputs` and rewrites the file.
  void merge_and_write(const Outputs& outputs, const std::string& path);

 private:
  std::map<std::string, std::string> values_;
  bool accept_all_ = false;
};

}  // namespace perfbench
