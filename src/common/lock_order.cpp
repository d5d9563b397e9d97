#include "common/lock_order.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>  // the registry's own internal lock
#include <set>
#include <sstream>
#include <vector>

namespace cods::lock_order {

namespace {

#ifdef NDEBUG
constexpr bool kDefaultEnabled = false;
#else
constexpr bool kDefaultEnabled = true;
#endif

std::atomic<bool> g_enabled{kDefaultEnabled};

void default_cycle_handler(const std::string& description) {
  std::fprintf(stderr, "[cods lock-order] %s\n", description.c_str());
  std::abort();
}

std::atomic<CycleHandler> g_handler{&default_cycle_handler};

// The registry's own mutex is a leaf: nothing is called back under it
// (the cycle handler runs after it is released), so it can never take
// part in an application-level cycle.
struct Registry {
  // codslint-allow(blocking): a cods::Mutex would report into itself
  std::mutex mutex;
  std::vector<std::string> names;                 // id -> name
  std::map<LockId, std::set<LockId>> successors;  // edge a -> b: a held
                                                  // when b was acquired
  std::size_t edge_count = 0;
  std::size_t cycles = 0;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: outlives static dtors
  return *r;
}

// Locks currently held by this thread, in acquisition order.
thread_local std::vector<LockId> t_held;

/// Depth-first search for a path from `from` to `to` in the successor
/// graph. Fills `path` (from ... to) when found.
bool find_path(const Registry& reg, LockId from, LockId to,
               std::set<LockId>& visited, std::vector<LockId>& path) {
  if (!visited.insert(from).second) return false;
  path.push_back(from);
  if (from == to) return true;
  const auto it = reg.successors.find(from);
  if (it != reg.successors.end()) {
    for (LockId next : it->second) {
      if (find_path(reg, next, to, visited, path)) return true;
    }
  }
  path.pop_back();
  return false;
}

std::string describe_cycle(const Registry& reg, LockId held, LockId acquiring,
                           const std::vector<LockId>& reverse_path,
                           const std::vector<LockId>& stack) {
  std::ostringstream os;
  os << "lock-order cycle: acquiring '" << reg.names[acquiring]
     << "' while holding '" << reg.names[held]
     << "', but the opposite order was already observed: ";
  for (std::size_t i = 0; i < reverse_path.size(); ++i) {
    if (i > 0) os << " -> ";
    os << "'" << reg.names[reverse_path[i]] << "'";
  }
  os << ". This thread's held locks:";
  for (LockId id : stack) os << " '" << reg.names[id] << "'";
  return os.str();
}

}  // namespace

LockId register_lock(const char* name) {
  Registry& reg = registry();
  // codslint-allow(blocking): the registry's leaf lock (see Registry)
  std::scoped_lock lock(reg.mutex);
  reg.names.emplace_back(name == nullptr ? "unnamed" : name);
  return static_cast<LockId>(reg.names.size() - 1);
}

void on_acquire(LockId id) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  std::string cycle;
  {
    Registry& reg = registry();
    // codslint-allow(blocking): the registry's leaf lock (see Registry)
    std::scoped_lock lock(reg.mutex);
    for (LockId held : t_held) {
      if (held == id) {
        // Recursive acquisition of a non-recursive lock: a self-deadlock.
        ++reg.cycles;
        cycle = describe_cycle(reg, held, id, {id}, t_held);
        break;
      }
      auto& succ = reg.successors[held];
      if (succ.contains(id)) continue;  // edge already validated
      // New edge held -> id: a pre-existing path id ->* held closes a
      // cycle. Check before inserting so the path excludes the new edge.
      std::set<LockId> visited;
      std::vector<LockId> path;
      if (find_path(reg, id, held, visited, path)) {
        ++reg.cycles;
        cycle = describe_cycle(reg, held, id, path, t_held);
        break;
      }
      succ.insert(id);
      ++reg.edge_count;
    }
  }
  if (!cycle.empty()) {
    // Handler outside the registry lock: it may throw (tests) or abort.
    g_handler.load()(cycle);
    return;  // a non-aborting handler continues; the edge is not recorded
  }
  t_held.push_back(id);
}

void on_try_acquire(LockId id) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  t_held.push_back(id);
}

void on_release(LockId id) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  // Remove the most recent hold; out-of-order release is permitted.
  const auto it = std::find(t_held.rbegin(), t_held.rend(), id);
  if (it != t_held.rend()) t_held.erase(std::next(it).base());
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

CycleHandler set_cycle_handler(CycleHandler handler) {
  return g_handler.exchange(handler == nullptr ? &default_cycle_handler
                                               : handler);
}

std::string dump_hierarchy() {
  Registry& reg = registry();
  std::set<std::pair<std::string, std::string>> lines;
  {
    // codslint-allow(blocking): the registry's leaf lock (see Registry)
    std::scoped_lock lock(reg.mutex);
    for (const auto& [from, succ] : reg.successors) {
      for (LockId to : succ) {
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
  reg.successors.clear();
  reg.edge_count = 0;
  reg.cycles = 0;
}

}  // namespace cods::lock_order
