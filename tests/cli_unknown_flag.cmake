# Checks that `uvmasync run` refuses a flag it does not read, or a
# numeric flag whose value is not a plain non-negative integer: a typo
# such as --no-lnt, `--runs abc`, `--jobs 4x` or `--jobs -1` exits 2
# before anything simulates and names the flag (a typo also gets the
# closest flag suggested). `uvmasync-serve` refuses a typo the same
# way, before it creates its state directory or binds its socket.
#
#   cmake -DCLI=build/tools/uvmasync -DSERVE=build/tools/uvmasync-serve
#         -P tests/cli_unknown_flag.cmake

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

# A daemon that accepted the typo would serve until killed; the
# timeout turns that into a failure instead of a hang.
set(work "${CMAKE_CURRENT_BINARY_DIR}/cli_unknown_flag_serve")
file(REMOVE_RECURSE "${work}")
file(MAKE_DIRECTORY "${work}")
execute_process(
    COMMAND "${SERVE}" --socket "${work}/serve.sock"
            --state "${work}/state" --jbos 4
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc
    TIMEOUT 20)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "serve --jbos: expected exit 2, got ${rc}:\n"
                        "${err}")
endif()
if(NOT out STREQUAL "")
    message(FATAL_ERROR "serve --jbos: a refused daemon wrote to "
                        "stdout:\n${out}")
endif()
if(NOT err MATCHES
   "unknown flag '--jbos' \\(did you mean '--jobs'\\?\\)")
    message(FATAL_ERROR "serve --jbos: refusal does not name the "
                        "flag:\n${err}")
endif()
if(EXISTS "${work}/serve.sock" OR EXISTS "${work}/state")
    message(FATAL_ERROR "serve --jbos: the refused daemon created its "
                        "socket or state directory")
endif()
file(REMOVE_RECURSE "${work}")
