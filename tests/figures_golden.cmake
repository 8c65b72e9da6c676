# Figure golden gate: a bench's smoke-scale output must match its
# committed golden in tests/golden/figures/ byte for byte. A golden named
# *.json is the bench's schema-v1 --json report (it holds no host fields);
# any other golden is the bench's stdout without its "[<bench>] wall ..."
# footer line, which reports host time and the run scale. On a mismatch the
# actual output stays in ACTUAL_DIR, so drift reads as a diff against the
# golden; copy it over only for an intended change of simulated results.
#
# Invoked by ctest as:
#   cmake -DBENCH=<bench executable> -DGOLDEN=<golden file> -DACTUAL_DIR=<dir>
#         [-DHARTS=<n> | -DARGS=<arguments>] -P figures_golden.cmake
# ARGS (space-separated) replaces the default "--smoke [--harts n]", so a
# tool's stdout can be pinned the same way.
if(NOT DEFINED BENCH OR NOT DEFINED GOLDEN OR NOT DEFINED ACTUAL_DIR)
  message(FATAL_ERROR
    "usage: cmake -DBENCH=... -DGOLDEN=... -DACTUAL_DIR=... [-DHARTS=n | -DARGS=...] -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

if(DEFINED ARGS)
  separate_arguments(args UNIX_COMMAND "${ARGS}")
else()
  set(args --smoke)
  if(DEFINED HARTS)
    list(APPEND args --harts ${HARTS})
  endif()
endif()
string(JOIN " " run "${BENCH}" ${args})
file(MAKE_DIRECTORY "${ACTUAL_DIR}")
get_filename_component(golden_name "${GOLDEN}" NAME)
set(actual "${ACTUAL_DIR}/${golden_name}")

if(golden_name MATCHES "\\.json$")
  execute_process(
    COMMAND "${BENCH}" ${args} --json "${actual}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE log
    ERROR_VARIABLE log)
else()
  execute_process(
    COMMAND "${BENCH}" ${args}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE log)
  string(REGEX REPLACE "(^|\n)\\[[a-z_]+\\] wall [^\n]*" "" out "${out}")
  file(WRITE "${actual}" "${out}")
endif()
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${run} exited ${rc}:\n${log}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${GOLDEN}" "${actual}"
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR
    "${run} drifted from its figure golden:\n"
    "  golden: ${GOLDEN}\n  actual: ${actual}")
endif()
file(REMOVE "${actual}")
message(STATUS "${golden_name} matches its golden")
