#include "common/lock_order.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>  // the registry's own internal lock
#include <set>
#include <sstream>
#include <string_view>
#include <vector>

namespace cods::lock_order {

#ifdef NDEBUG
std::atomic<bool> detail::g_enabled{false};
#else
std::atomic<bool> detail::g_enabled{true};
#endif

namespace {

void default_cycle_handler(const std::string& description) {
  std::fprintf(stderr, "[cods lock-order] %s\n", description.c_str());
  std::abort();
}

std::atomic<CycleHandler> g_handler{&default_cycle_handler};

/// Dense id of an interned lock class.
using ClassId = std::uint32_t;

// The registry's own mutex is a leaf: nothing is called back under it
// (the cycle handler runs after it is released), so it can never take
// part in an application-level cycle.
struct Registry {
  // codslint-allow(blocking): a cods::Mutex would report into itself
  std::mutex mutex;
  std::vector<const char*> names;  // class id -> class name
  // By content: one literal may have several addresses across
  // translation units.
  std::map<std::string_view, ClassId> ids;
  std::vector<std::set<ClassId>> successors;  // edge a -> b: a held when b
                                              // was acquired
  std::size_t edge_count = 0;
  std::size_t cycles = 0;

  ClassId intern(const char* name) {
    const auto [it, inserted] =
        ids.try_emplace(name, static_cast<ClassId>(names.size()));
    if (inserted) {
      names.push_back(name);
      successors.emplace_back();
    }
    return it->second;
  }
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: outlives static dtors
  return *r;
}

// Classes of the locks this thread holds, in acquisition order. Held
// classes are interned lazily by the next blocking acquisition, so
// try-lock and release never take the registry lock.
thread_local HeldClasses t_held;

/// Depth-first search for a path from `from` to `to` in the successor
/// graph. Fills `path` (from ... to) when found.
bool find_path(const Registry& reg, ClassId from, ClassId to,
               std::set<ClassId>& visited, std::vector<ClassId>& path) {
  if (!visited.insert(from).second) return false;
  path.push_back(from);
  if (from == to) return true;
  for (ClassId next : reg.successors[from]) {
    if (find_path(reg, next, to, visited, path)) return true;
  }
  path.pop_back();
  return false;
}

std::string describe_cycle(const Registry& reg, ClassId held,
                           ClassId acquiring,
                           const std::vector<ClassId>& reverse_path) {
  std::ostringstream os;
  os << "lock-order cycle: acquiring '" << reg.names[acquiring]
     << "' while holding '" << reg.names[held]
     << "', but the opposite order was already observed: ";
  for (std::size_t i = 0; i < reverse_path.size(); ++i) {
    if (i > 0) os << " -> ";
    os << "'" << reg.names[reverse_path[i]] << "'";
  }
  os << ". This thread's held locks:";
  for (const char* name : t_held) os << " '" << name << "'";
  return os.str();
}

/// Records the (held -> lock_class) edges of a blocking acquisition and
/// reports the first cycle or recursive acquisition. The edge that
/// closes a cycle is not recorded.
void record_edges(const char* lock_class) {
  std::string cycle;
  {
    Registry& reg = registry();
    // codslint-allow(blocking): the registry's leaf lock (see Registry)
    std::scoped_lock lock(reg.mutex);
    const ClassId id = reg.intern(lock_class);
    for (const char* held_class : t_held) {
      const ClassId held = reg.intern(held_class);
      if (held == id) {
        // A second lock of a class this thread holds: either the same
        // non-recursive lock (a self-deadlock) or two instances nested in
        // an order the class graph cannot check.
        ++reg.cycles;
        cycle = describe_cycle(reg, held, id, {id});
        break;
      }
      auto& succ = reg.successors[held];
      if (succ.contains(id)) continue;  // edge already validated
      // New edge held -> id: a pre-existing path id ->* held closes a
      // cycle. Check before inserting so the path excludes the new edge.
      std::set<ClassId> visited;
      std::vector<ClassId> path;
      if (find_path(reg, id, held, visited, path)) {
        ++reg.cycles;
        cycle = describe_cycle(reg, held, id, path);
        break;
      }
      succ.insert(id);
      ++reg.edge_count;
    }
  }
  if (cycle.empty()) return;
  // Handler outside the registry lock: it may throw (tests) or abort.
  g_handler.load()(cycle);
}

}  // namespace

void on_acquire(const char* lock_class) {
  if (!enabled()) return;
  record_edges(lock_class);
  // A handler that returned lets the acquisition go on, so the class is
  // held from here as after any other; the simulated path marks it the
  // same way when its try-lock wins.
  t_held.push_back(lock_class);
}

void on_acquire_attempt(const char* lock_class) {
  if (!enabled()) return;
  record_edges(lock_class);
}

void on_try_acquire(const char* lock_class) {
  if (!enabled()) return;
  t_held.push_back(lock_class);
}

void on_release(const char* lock_class) {
  if (!enabled()) return;
  // Remove the most recent hold of the class; out-of-order release is
  // permitted.
  const auto it = std::find_if(
      t_held.rbegin(), t_held.rend(), [lock_class](const char* held) {
        return std::strcmp(held, lock_class) == 0;
      });
  if (it != t_held.rend()) t_held.erase(std::next(it).base());
}

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void exchange_held(std::unique_ptr<HeldClasses>& parked) {
  if (parked == nullptr) {
    if (t_held.empty()) return;
    parked = std::make_unique<HeldClasses>();
  }
  parked->swap(t_held);
  if (parked->empty()) parked.reset();
}

CycleHandler set_cycle_handler(CycleHandler handler) {
  return g_handler.exchange(handler == nullptr ? &default_cycle_handler
                                               : handler);
}

std::string dump_hierarchy() {
  Registry& reg = registry();
  std::set<std::pair<std::string_view, std::string_view>> lines;
  {
    // codslint-allow(blocking): the registry's leaf lock (see Registry)
    std::scoped_lock lock(reg.mutex);
    for (ClassId from = 0; from < reg.successors.size(); ++from) {
      for (ClassId to : reg.successors[from]) {
        lines.insert({reg.names[from], reg.names[to]});
      }
    }
  }
  std::ostringstream os;
  for (const auto& [from, to] : lines) os << from << " -> " << to << "\n";
  return os.str();
}

std::size_t edge_count() {
  Registry& reg = registry();
  // codslint-allow(blocking): the registry's leaf lock (see Registry)
  std::scoped_lock lock(reg.mutex);
  return reg.edge_count;
}

std::size_t class_count() {
  Registry& reg = registry();
  // codslint-allow(blocking): the registry's leaf lock (see Registry)
  std::scoped_lock lock(reg.mutex);
  return reg.names.size();
}

std::size_t cycles_reported() {
  Registry& reg = registry();
  // codslint-allow(blocking): the registry's leaf lock (see Registry)
  std::scoped_lock lock(reg.mutex);
  return reg.cycles;
}

void reset_edges_for_testing() {
  Registry& reg = registry();
  // codslint-allow(blocking): the registry's leaf lock (see Registry)
  std::scoped_lock lock(reg.mutex);
  for (auto& succ : reg.successors) succ.clear();
  reg.edge_count = 0;
  reg.cycles = 0;
}

}  // namespace cods::lock_order
