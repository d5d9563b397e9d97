#include "pins.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>

namespace perfbench {

void Outputs::add(const std::string& key, std::uint64_t value) {
  items_.emplace_back(key, std::to_string(value));
}

void Outputs::add(const std::string& key, std::int64_t value) {
  items_.emplace_back(key, std::to_string(value));
}

void Outputs::add(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", value);
  items_.emplace_back(key, buf);
}

void Outputs::add_text(const std::string& key, std::string value) {
  items_.emplace_back(key, std::move(value));
}

void Digest::add(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= bytes[i];
    state_ *= 1099511628211ULL;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, state_);
  return buf;
}

Pins Pins::read(std::istream& in) {
  Pins pins;
  std::string key;
  std::string value;
  while (in >> key >> value) pins.values_[key] = value;
  return pins;
}

Pins Pins::load(const std::string& path) {
  std::ifstream in(path);
  return read(in);
}

Pins Pins::accept_all() {
  Pins pins;
  pins.accept_all_ = true;
  return pins;
}

std::uint64_t Pins::mismatches(const Outputs& outputs,
                               const std::string& prefix,
                               std::string* first) const {
  if (accept_all_) return 0;
  std::uint64_t bad = 0;
  const auto report = [&](const std::string& what) {
    if (bad == 0 && first != nullptr) *first = what;
    ++bad;
  };
  std::set<std::string> produced;
  for (const auto& [key, value] : outputs.items()) {
    produced.insert(key);
    const auto it = values_.find(key);
    if (it != values_.end() && it->second == value) continue;
    report(key + " = " + value + ", pinned " +
           (it == values_.end() ? std::string("nothing") : it->second));
  }
  for (auto it = values_.lower_bound(prefix);
       it != values_.end() && it->first.starts_with(prefix); ++it) {
    if (!produced.contains(it->first)) {
      report(it->first + " is pinned to " + it->second + " but missing");
    }
  }
  return bad;
}

void Pins::merge_and_write(const Outputs& outputs, const std::string& path) {
  for (const auto& [key, value] : outputs.items()) values_[key] = value;
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write pins to " + path);
  for (const auto& [key, value] : values_) out << key << ' ' << value << '\n';
}

}  // namespace perfbench
