// Bait for the determinism check
// (tools/analyze/codslint/checks/determinism.py).
//
// Hash-order iteration inside a canonical-output function, both directly
// and through a type alias, over std::unordered_map and over the repo's
// flat open-addressing table; ordered iteration and non-canonical
// functions must stay silent.

#include <map>
#include <unordered_map>

namespace cods {
// Stand-in for src/common/flat_table.hpp: iteration follows the insert and
// erase history, so it is as order-unstable as a hash map.
template <typename Key, typename Value, typename Hash>
class FlatTable {
 public:
  struct Entry {
    Key key;
    Value value;
  };
  const Entry* begin() const { return nullptr; }
  const Entry* end() const { return nullptr; }
};
}  // namespace cods

namespace bait_det {

struct IntHash {
  unsigned long operator()(int k) const {
    return static_cast<unsigned long>(k);
  }
};

using Histogram = std::unordered_map<int, long>;
using Windows = cods::FlatTable<int, long, IntHash>;

class Stats {
 public:
  long report() const {
    long total = 0;
    for (const auto& kv : counts_) {   // codslint-expect(determinism)
      total += kv.second;
    }
    for (const auto& kv : hist_) {     // codslint-expect(determinism)
      total += kv.second;
    }
    for (const auto& kv : sorted_) {   // ordered container: must NOT fire
      total += kv.second;
    }
    return total;
  }
  long dump_windows() const {
    long total = 0;
    for (const auto& e : flat_) {      // codslint-expect(determinism)
      total = total * 31 + e.value;
    }
    for (const auto& e : windows_) {   // codslint-expect(determinism)
      total = total * 31 + e.value;
    }
    return total;
  }
  // Same iteration, non-canonical function name: must NOT fire.
  long gather() const {
    long total = 0;
    for (const auto& kv : counts_) {
      total += kv.second;
    }
    return total;
  }

 private:
  std::unordered_map<int, long> counts_;
  Histogram hist_;
  cods::FlatTable<int, long, IntHash> flat_;
  Windows windows_;
  std::map<int, long> sorted_;
};

}  // namespace bait_det
