# Fails if library code under SRC_DIR writes to stderr. The library reports
# degraded configurations through registry counters, and the tools decide
# what to print. Two writers are allowed: the MUDS_CHECK failure message in
# common/check.h and the request logger in serve/server.cc.
#
# Usage: cmake -DSRC_DIR=<repo>/src -P no_library_stderr.cmake

if(NOT SRC_DIR)
  message(FATAL_ERROR "pass -DSRC_DIR=<path to src/>")
endif()

get_filename_component(SRC_DIR "${SRC_DIR}" ABSOLUTE)
file(GLOB_RECURSE sources RELATIVE "${SRC_DIR}" "${SRC_DIR}/*.h"
     "${SRC_DIR}/*.cc")
if(NOT sources)
  message(FATAL_ERROR "no .h or .cc files under ${SRC_DIR}")
endif()
set(pattern "fprintf\\(stderr|std::cerr")
set(report "")
foreach(source IN LISTS sources)
  file(STRINGS "${SRC_DIR}/${source}" lines REGEX "${pattern}")
  foreach(line IN LISTS lines)
    if(source STREQUAL "common/check.h")
      continue()
    endif()
    if(source STREQUAL "serve/server.cc" AND
       line MATCHES "std::vfprintf\\(stderr, format, args\\)")
      continue()
    endif()
    string(STRIP "${line}" line)
    string(APPEND report "\n  ${source}: ${line}")
  endforeach()
endforeach()

if(report)
  message(FATAL_ERROR "library code writes to stderr:${report}")
endif()
list(LENGTH sources count)
message(STATUS "no stderr writes in ${count} library files")
