# Checks the `figures` binary: its stdout at --jobs 2 matches
# tests/golden/figures.txt (made at --jobs 4) byte for byte, so the
# golden pins every printed figure and their independence of the job
# count; and an unknown figure name exits 2 before anything runs.
#
#   cmake -DFIGURES=build/bench/figures
#         -DGOLDEN=tests/golden/figures.txt -P tests/figures_golden.cmake
#
# After an intended change, regenerate with
#   build/bench/figures > tests/golden/figures.txt
# and review the diff.
set(actual "${CMAKE_CURRENT_BINARY_DIR}/figures_jobs2.txt")
execute_process(
    COMMAND "${FIGURES}" --jobs 2
    OUTPUT_FILE "${actual}"
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "figures --jobs 2 exited with ${rc}:\n${err}")
endif()
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${actual}"
    RESULT_VARIABLE differs)
if(differs)
    message(FATAL_ERROR "figures stdout differs from ${GOLDEN}; "
                        "see `diff ${GOLDEN} ${actual}`")
endif()

execute_process(
    COMMAND "${FIGURES}" no_such_fig
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit 2 for no_such_fig, got ${rc}:\n"
                        "${err}")
endif()
if(NOT out STREQUAL "" OR NOT err MATCHES "'no_such_fig'.*fig7_micro")
    message(FATAL_ERROR "refusal does not name the argument and list "
                        "the figures:\n${out}${err}")
endif()
