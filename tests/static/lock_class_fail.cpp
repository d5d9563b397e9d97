// Lock classes are compile-time names: cods::Mutex and cods::SharedMutex
// accept only a character array (a string literal in practice), so a
// lock's class can be neither computed at run time nor left out. Every
// CODS_LOCK_CLASS_CASE from 1 up MUST FAIL to compile; case 0 is the
// control and must compile, proving the failures come from the
// constructors and not from the sample itself. Driven by the ctest entry
// lock_class_compile_fail (tests/static/compile_fail.cmake).
#include <string>

#include "common/sync.hpp"

namespace cods {

const char* runtime_name();
std::string owned_name();

#if CODS_LOCK_CLASS_CASE == 0
Mutex from_literal{"test.literal"};
SharedMutex shared_from_literal{"test.shared_literal"};
#elif CODS_LOCK_CLASS_CASE == 1
Mutex from_pointer{runtime_name()};  // a pointer carries no static name
#elif CODS_LOCK_CLASS_CASE == 2
SharedMutex shared_from_pointer{runtime_name()};
#elif CODS_LOCK_CLASS_CASE == 3
Mutex unnamed;  // no default class: every lock names its own
#elif CODS_LOCK_CLASS_CASE == 4
Mutex from_string{owned_name()};  // a temporary cannot name a class
#endif

}  // namespace cods
