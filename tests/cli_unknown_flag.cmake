# Checks that `uvmasync run` refuses a flag it does not read: a typo
# such as --no-lnt exits 2 before anything simulates, names the flag
# and suggests the closest one.
#
#   cmake -DCLI=build/tools/uvmasync -P tests/cli_unknown_flag.cmake
execute_process(
    COMMAND "${CLI}" run --workload saxpy --size tiny --mode standard
            --runs 1 --no-store --no-lnt
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit 2, got ${rc}:\n${err}")
endif()
if(NOT out STREQUAL "")
    message(FATAL_ERROR "a refused run wrote to stdout:\n${out}")
endif()
if(NOT err MATCHES "unknown flag '--no-lnt' \\(did you mean '--no-lint'\\?\\)")
    message(FATAL_ERROR "refusal does not name the flag and its "
                        "suggestion:\n${err}")
endif()
if(err MATCHES "advisor:|\\[UAL")
    message(FATAL_ERROR "the refused run linted the job:\n${err}")
endif()
