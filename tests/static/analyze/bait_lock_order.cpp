// Bait for the lock-order check
// (tools/analyze/codslint/checks/lockorder.py).
//
// Minimal mimics of cods::Mutex / cods::MutexLock (registry names come
// from field initializer strings, exactly like src/common/sync.hpp), with
// three seeded shapes the extractor must find:
//   ab():            direct nesting        -> edge bait.a -> bait.b
//   ba():            the seeded inversion  -> edge bait.b -> bait.a
//   outer()/helper(): acquisition held across a call (interprocedural)
//                                          -> edge bait.a -> bait.c
//   Left/Right::run(): each class nests its own `Slot` with a differently
//                      named mutex; `slot.mutex` must resolve to the
//                      enclosing class's Slot, whichever was parsed first
//                                          -> edges bait.left -> bait.left_slot
//                                             and bait.right -> bait.right_slot
// The a<->b inversion forms a cycle; its witness line depends on the
// sorted component, hence the file-level marker:
// codslint-expect-file(lock-order)

namespace bait_lock {

struct Mutex {
  explicit Mutex(const char* name) : name_(name) {}
  const char* name_;
};

struct MutexLock {
  explicit MutexLock(Mutex& m) : m_(&m) {}
  Mutex* m_;
};

struct Tangle {
  Mutex a_{"bait.a"};
  Mutex b_{"bait.b"};
  Mutex c_{"bait.c"};

  void ab() {
    MutexLock la(a_);
    MutexLock lb(b_);
    touch();
  }
  void ba() {
    MutexLock lb(b_);
    MutexLock la(a_);  // inversion against ab(): cycle bait.a <-> bait.b
    touch();
  }
  void outer() {
    MutexLock la(a_);
    helper();          // bait.c acquired while bait.a is held
  }
  void helper() {
    MutexLock lc(c_);
    touch();
  }
  void touch() { ++generation_; }

  long generation_ = 0;
};

struct Left {
  struct Slot {
    Mutex mutex{"bait.left_slot"};
  };
  Mutex outer_{"bait.left"};
  Slot slots_[2];

  void run() {
    MutexLock lo(outer_);
    Slot& slot = slots_[0];
    MutexLock ls(slot.mutex);
  }
};

struct Right {
  struct Slot {
    Mutex mutex{"bait.right_slot"};
  };
  Mutex outer_{"bait.right"};
  Slot slots_[2];

  void run() {
    MutexLock lo(outer_);
    Slot& slot = slots_[1];
    MutexLock ls(slot.mutex);
  }
};

}  // namespace bait_lock
