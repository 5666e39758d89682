# Negative compile tests, two families:
#
#   case_fail_*.cpp     — API misuse the type system must reject on
#                         every compiler: Quantity dimensional-analysis
#                         violations (adding mismatched dimensions,
#                         assigning across dimensions, passing a raw
#                         double where a typed quantity is required) and
#                         a formatted std::string passed to require().
#                         Each case's header comment names what it
#                         violates.
#   case_tsa_fail_*.cpp — locking-discipline violations clang's Thread
#                         Safety Analysis must reject under
#                         -Wthread-safety -Wthread-safety-beta -Werror
#                         (unlocked GUARDED_BY access, double acquire,
#                         REQUIRES helper called without the lock). Only
#                         exercised when the compiler is clang — the
#                         attributes are no-ops on GCC, so these cases
#                         would (correctly) build there.
#
# try_compile runs at configure time: a case that unexpectedly *builds*
# aborts the configure, so a regression that weakens either checker can
# never reach the test or CI stage looking green.

set(_cf_dir ${CMAKE_CURRENT_SOURCE_DIR}/tests/compile_fail)

# Positive control first: proves the harness compiles well-formed code,
# so the failures below mean "rejected by the type system", not "broken
# include path".
try_compile(_cf_control ${CMAKE_BINARY_DIR}/compile_fail
            ${_cf_dir}/control_ok.cpp
            CMAKE_FLAGS "-DINCLUDE_DIRECTORIES=${CMAKE_CURRENT_SOURCE_DIR}/src"
            CXX_STANDARD 17 CXX_STANDARD_REQUIRED ON)
if(NOT _cf_control)
  message(FATAL_ERROR
          "compile_fail: the positive control failed to compile — the "
          "harness itself is broken, negative results would be meaningless")
endif()

file(GLOB _cf_cases ${_cf_dir}/case_fail_*.cpp)
foreach(_case ${_cf_cases})
  get_filename_component(_name ${_case} NAME_WE)
  try_compile(_cf_built ${CMAKE_BINARY_DIR}/compile_fail
              ${_case}
              CMAKE_FLAGS "-DINCLUDE_DIRECTORIES=${CMAKE_CURRENT_SOURCE_DIR}/src"
              CXX_STANDARD 17 CXX_STANDARD_REQUIRED ON)
  if(_cf_built)
    message(FATAL_ERROR
            "compile_fail: ${_name} compiled but must not — the API no "
            "longer rejects the misuse described at the top of ${_case}")
  endif()
  message(STATUS "compile_fail: ${_name} rejected as required")
endforeach()

# --- Thread Safety Analysis cases (clang only) --------------------------
# The TSA cases instantiate spinsim::Mutex and friends, so they link
# src/core/sync.cpp alongside the case file. The positive control proves
# correctly-annotated code survives -Werror before we trust any rejection.
if(CMAKE_CXX_COMPILER_ID MATCHES "Clang")
  set(_tsa_flags "-Wthread-safety -Wthread-safety-beta -Werror")
  try_compile(_cf_tsa_control ${CMAKE_BINARY_DIR}/compile_fail
              SOURCES ${_cf_dir}/tsa_control_ok.cpp
                      ${CMAKE_CURRENT_SOURCE_DIR}/src/core/sync.cpp
              CMAKE_FLAGS "-DINCLUDE_DIRECTORIES=${CMAKE_CURRENT_SOURCE_DIR}/src"
                          "-DCMAKE_CXX_FLAGS=${_tsa_flags}"
              CXX_STANDARD 17 CXX_STANDARD_REQUIRED ON)
  if(NOT _cf_tsa_control)
    message(FATAL_ERROR
            "compile_fail: the thread-safety positive control failed under "
            "-Wthread-safety -Werror — the sync.hpp annotations themselves "
            "are inconsistent, negative results would be meaningless")
  endif()

  file(GLOB _cf_tsa_cases ${_cf_dir}/case_tsa_fail_*.cpp)
  foreach(_case ${_cf_tsa_cases})
    get_filename_component(_name ${_case} NAME_WE)
    try_compile(_cf_tsa_built ${CMAKE_BINARY_DIR}/compile_fail
                SOURCES ${_case}
                        ${CMAKE_CURRENT_SOURCE_DIR}/src/core/sync.cpp
                CMAKE_FLAGS "-DINCLUDE_DIRECTORIES=${CMAKE_CURRENT_SOURCE_DIR}/src"
                            "-DCMAKE_CXX_FLAGS=${_tsa_flags}"
                CXX_STANDARD 17 CXX_STANDARD_REQUIRED ON)
    if(_cf_tsa_built)
      message(FATAL_ERROR
              "compile_fail: ${_name} compiled but must not — clang's "
              "Thread Safety Analysis no longer rejects this locking "
              "violation (annotations weakened in core/sync.hpp?)")
    endif()
    message(STATUS "compile_fail: ${_name} rejected as required")
  endforeach()
  message(STATUS "compile_fail: thread-safety control compiled, "
                 "all TSA negative cases rejected")
else()
  message(STATUS
          "compile_fail: skipping case_tsa_fail_* (thread-safety attributes "
          "are no-ops on ${CMAKE_CXX_COMPILER_ID}; the CI static-analysis "
          "job runs them under clang)")
endif()

message(STATUS "compile_fail: control compiled, all negative cases rejected")
