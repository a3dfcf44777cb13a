# Checks that `uvmasync run` refuses a flag it does not read, or a
# numeric flag whose value is not a plain non-negative integer: a typo
# such as --no-lnt, `--runs abc`, `--jobs 4x` or `--jobs -1` exits 2
# before anything simulates and names the flag (a typo also gets the
# closest flag suggested).
#
#   cmake -DCLI=build/tools/uvmasync -P tests/cli_unknown_flag.cmake

# Run `uvmasync run` on saxpy with @p ARGN appended and expect it to
# be refused: exit 2, nothing on stdout, stderr matching @p pattern
# and no sign that the job was linted.
function(expect_refused pattern)
    execute_process(
        COMMAND "${CLI}" run --workload saxpy --size tiny
                --mode standard --runs 1 --no-store ${ARGN}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR "${ARGN}: expected exit 2, got ${rc}:\n"
                            "${err}")
    endif()
    if(NOT out STREQUAL "")
        message(FATAL_ERROR "${ARGN}: a refused run wrote to stdout:\n"
                            "${out}")
    endif()
    if(NOT err MATCHES "${pattern}")
        message(FATAL_ERROR "${ARGN}: refusal does not match "
                            "'${pattern}':\n${err}")
    endif()
    if(err MATCHES "advisor:|\\[UAL")
        message(FATAL_ERROR "${ARGN}: the refused run linted the "
                            "job:\n${err}")
    endif()
endfunction()

expect_refused(
    "unknown flag '--no-lnt' \\(did you mean '--no-lint'\\?\\)"
    --no-lnt)
# The second --runs overrides the first.
expect_refused("--runs needs an integer .*got 'abc'" --runs abc)
expect_refused("--jobs needs an integer .*got '4x'" --jobs 4x)
expect_refused("--jobs needs an integer .*got '-1'" --jobs -1)
