# Compile-fail driver: compiles SRC with -DCODS_LOCK_CLASS_CASE=0 (must
# succeed) and with every case in 1..LAST (each must fail, with an error
# that names the constructor's class).
#
#   cmake -DCXX=<compiler> -DSRC=<file> -DINCLUDE=<dir> -DLAST=<n> \
#         -P compile_fail.cmake
set(flags -std=c++20 -fsyntax-only -I${INCLUDE})
execute_process(
  COMMAND ${CXX} ${flags} -DCODS_LOCK_CLASS_CASE=0 ${SRC}
  RESULT_VARIABLE status ERROR_VARIABLE errors)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "control case 0 failed to compile:\n${errors}")
endif()
foreach(case RANGE 1 ${LAST})
  execute_process(
    COMMAND ${CXX} ${flags} -DCODS_LOCK_CLASS_CASE=${case} ${SRC}
    RESULT_VARIABLE status ERROR_VARIABLE errors)
  if(status EQUAL 0)
    message(FATAL_ERROR "case ${case} compiled, but must not")
  endif()
  if(NOT errors MATCHES "Mutex")
    message(FATAL_ERROR
      "case ${case} failed for a reason other than the lock's class:\n"
      "${errors}")
  endif()
  message(STATUS "case ${case} rejected as expected")
endforeach()
