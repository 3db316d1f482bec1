# Fails if a library header under ROOT_DIR/src (outside src/testing/) has no
# production includer: nothing but its own .cc, tests/ and fuzz/ includes
# it. Such a module is code whose only caller is its own test. Includers
# under src/, tools/, bench/, e2ebench/ and examples/ count.
#
# Usage: cmake -DROOT_DIR=<repo> -P no_test_only_modules.cmake

cmake_minimum_required(VERSION 3.16)

if(NOT ROOT_DIR)
  message(FATAL_ERROR "pass -DROOT_DIR=<path to the repository root>")
endif()

get_filename_component(ROOT_DIR "${ROOT_DIR}" ABSOLUTE)
set(src "${ROOT_DIR}/src")
file(GLOB_RECURSE headers RELATIVE "${src}" "${src}/*.h")
if(NOT headers)
  message(FATAL_ERROR "no .h files under ${src}")
endif()

# Every quoted include of a production file, except a .cc including its own
# header.
set(include_pattern "^[ \t]*#[ \t]*include[ \t]*\"([^\"]+)\"")
set(used "")
foreach(dir IN ITEMS src tools bench e2ebench examples)
  file(GLOB_RECURSE files "${ROOT_DIR}/${dir}/*.h" "${ROOT_DIR}/${dir}/*.cc")
  foreach(file IN LISTS files)
    file(STRINGS "${file}" lines REGEX "${include_pattern}")
    foreach(line IN LISTS lines)
      string(REGEX REPLACE "${include_pattern}.*" "\\1" name "${line}")
      string(REGEX REPLACE "\\.h$" ".cc" own_source "${src}/${name}")
      if(NOT file STREQUAL own_source)
        list(APPEND used "${name}")
      endif()
    endforeach()
  endforeach()
endforeach()

set(report "")
foreach(header IN LISTS headers)
  if(header MATCHES "^testing/" OR header IN_LIST used)
    continue()
  endif()
  string(APPEND report "\n  src/${header}")
endforeach()

if(report)
  message(FATAL_ERROR
          "headers included only by their own .cc, tests/ or fuzz/:${report}")
endif()
list(LENGTH headers count)
message(STATUS "every one of ${count} library headers has a production "
               "includer")
