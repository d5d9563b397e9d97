// Binary checkpoint/restart for the CoDS sequential object store.
// Format (little-endian, native field widths):
//   magic "CODSCKP2" | u64 object_count
//   per object: u64 var_len | var bytes | i32 version | i32 node |
//               i32 ndim | i64 lb[ndim] | i64 ub[ndim] |
//               u64 data_len | data bytes | u32 crc32(data)
// A stream with any other magic is rejected before anything is read into
// the space, so every loaded object is CRC-checked.
#include <algorithm>
#include <array>
#include <fstream>
#include <istream>
#include <ostream>
#include <span>
#include <tuple>

#include "core/cods.hpp"

namespace cods {

namespace {

constexpr char kMagicV2[8] = {'C', 'O', 'D', 'S', 'C', 'K', 'P', '2'};

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320), table-driven. Guards each
/// object's payload against silent corruption between save and restore.
u32 crc32(std::span<const std::byte> data) {
  static const std::array<u32, 256> table = [] {
    std::array<u32, 256> t{};
    for (u32 i = 0; i < 256; ++i) {
      u32 c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1u) ? 0xEDB88320u : 0u);
      t[i] = c;
    }
    return t;
  }();
  u32 crc = 0xFFFFFFFFu;
  for (const std::byte b : data) {
    crc = (crc >> 8) ^ table[(crc ^ static_cast<u32>(b)) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

/// Largest plausible element size: bounds data_len against the box volume
/// so a corrupted length field cannot drive an arbitrary allocation.
constexpr u64 kMaxElemSize = 4096;

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T value;
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  CODS_CHECK(in.good(), "truncated checkpoint stream");
  return value;
}

}  // namespace

u64 CodsSpace::save_checkpoint(std::ostream& out) const {
  struct Entry {
    std::string var;
    i32 version;
    i32 node;
    Box box;
    std::vector<std::byte> data;
  };
  std::vector<Entry> entries;
  {
    MutexLock lock(store_mutex_);
    for (const auto& [index_key, keys] : store_index_) {
      for (const u64 window_key : keys) {
        const auto it = store_.find(window_key);
        if (it == store_.end()) continue;
        entries.push_back(Entry{index_key.first, index_key.second,
                                it->second.node, it->second.box,
                                it->second.data});
      }
    }
  }
  // Index order reflects put interleaving; sort so the same space content
  // always produces the same checkpoint bytes (and restore-time remaps
  // that walk the stream are replayable).
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return std::tie(a.var, a.version, a.box.lb.c, a.box.ub.c) <
                     std::tie(b.var, b.version, b.box.lb.c, b.box.ub.c);
            });
  out.write(kMagicV2, sizeof(kMagicV2));
  write_pod<u64>(out, entries.size());
  for (const Entry& e : entries) {
    write_pod<u64>(out, e.var.size());
    out.write(e.var.data(), static_cast<std::streamsize>(e.var.size()));
    write_pod<i32>(out, e.version);
    write_pod<i32>(out, e.node);
    write_pod<i32>(out, e.box.ndim());
    for (int d = 0; d < e.box.ndim(); ++d) write_pod<i64>(out, e.box.lb[d]);
    for (int d = 0; d < e.box.ndim(); ++d) write_pod<i64>(out, e.box.ub[d]);
    write_pod<u64>(out, e.data.size());
    out.write(reinterpret_cast<const char*>(e.data.data()),
              static_cast<std::streamsize>(e.data.size()));
    write_pod<u32>(out, crc32(std::span(e.data)));
  }
  CODS_CHECK(out.good(), "checkpoint write failed");
  return entries.size();
}

u64 CodsSpace::save_checkpoint(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  CODS_REQUIRE(out.good(), "cannot open checkpoint file for writing: " + path);
  const u64 count = save_checkpoint(out);
  out.flush();
  CODS_CHECK(out.good(), "checkpoint flush failed: " + path);
  return count;
}

CodsSpace::RestoreResult CodsSpace::restore_from_stream(
    std::istream& in, const std::function<std::optional<i32>(i32)>& remap) {
  char magic[sizeof(kMagicV2)];
  in.read(magic, sizeof(magic));
  CODS_REQUIRE(in.good() && std::equal(std::begin(magic), std::end(magic),
                                       std::begin(kMagicV2)),
               "not a CoDS checkpoint (bad magic)");
  const u64 count = read_pod<u64>(in);
  RestoreResult result;
  for (u64 i = 0; i < count; ++i) {
    const u64 var_len = read_pod<u64>(in);
    CODS_REQUIRE(var_len < (1u << 20), "implausible variable name length");
    std::string var(var_len, '\0');
    in.read(var.data(), static_cast<std::streamsize>(var_len));
    CODS_CHECK(in.good(), "truncated checkpoint stream");
    const i32 version = read_pod<i32>(in);
    const i32 node = read_pod<i32>(in);
    CODS_REQUIRE(node >= 0 && node < cluster_->num_nodes(),
                 "checkpoint references a node outside this cluster");
    const i32 ndim = read_pod<i32>(in);
    CODS_REQUIRE(ndim >= 1 && ndim <= kMaxDims, "bad checkpoint dimension");
    Box box;
    box.lb = Point::zeros(ndim);
    box.ub = Point::zeros(ndim);
    for (int d = 0; d < ndim; ++d) box.lb[d] = read_pod<i64>(in);
    for (int d = 0; d < ndim; ++d) box.ub[d] = read_pod<i64>(in);
    CODS_REQUIRE(box.valid(), "bad checkpoint region");
    const u64 data_len = read_pod<u64>(in);
    // data_len must be a whole number of elements of a plausible size for
    // this region: rejects corrupted lengths before allocating anything.
    const u64 volume = static_cast<u64>(box.volume());
    CODS_REQUIRE(data_len >= volume && data_len % volume == 0 &&
                     data_len / volume <= kMaxElemSize,
                 "checkpoint data length inconsistent with region volume");
    // An object that still lives in the space is never touched: restore
    // fills holes (lost objects) only.
    const u64 key = window_key(var, version, box);
    bool exists = false;
    {
      MutexLock lock(store_mutex_);
      exists = store_.contains(key);
    }
    const std::optional<i32> target = exists ? std::nullopt : remap(node);
    if (!target) {
      // Not selected for restore: skip the payload and its CRC footer.
      in.ignore(static_cast<std::streamsize>(data_len));
      read_pod<u32>(in);
      continue;
    }
    CODS_REQUIRE(*target >= 0 && *target < cluster_->num_nodes(),
                 "restore remap produced a node outside this cluster");
    std::vector<std::byte> data(data_len);
    in.read(reinterpret_cast<char*>(data.data()),
            static_cast<std::streamsize>(data_len));
    CODS_CHECK(in.good(), "truncated checkpoint stream");
    const u32 expected = read_pod<u32>(in);
    if (crc32(std::span<const std::byte>(data)) != expected) {
      // A corrupt object loses that object, not the whole restore: the
      // caller sees the count and decides whether the wave can proceed.
      ++result.corrupt;
      dart_.metrics().add_count(
          /*app_id=*/0, dart_.metrics().intern("ckpt.corrupt_skipped"));
      continue;
    }
    const DataLocation loc =
        store_object(*target, var, version, box, std::move(data));
    dht_.insert(var, version, loc);
    ++result.objects;
    result.bytes += data_len;
  }
  return result;
}

u64 CodsSpace::load_checkpoint(std::istream& in) {
  return restore_from_stream(in, [](i32 node) { return node; }).objects;
}

u64 CodsSpace::load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CODS_REQUIRE(in.good(), "cannot open checkpoint file: " + path);
  return load_checkpoint(in);
}

u64 CodsSpace::restore_lost(
    std::istream& in, const std::function<std::optional<i32>(i32)>& remap) {
  return restore_from_stream(in, remap).bytes;
}

}  // namespace cods
