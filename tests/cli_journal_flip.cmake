# Regression: one changed hex digit inside a journal record's `runs`
# value must be caught, never restored. `fsck` reports it (exit 1),
# `--resume` refuses it, and after `fsck --repair` a resume completes
# to the byte-identical journal and CSV of an uninterrupted run.
#
#   cmake -DCLI=build/tools/uvmasync -DWORK=/tmp/flip \
#         -P tests/cli_journal_flip.cmake
set(run_args run --workload saxpy --size tiny --runs 2 --jobs 1
    --no-store)
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Run the CLI; EXPECT is an exit code, or "fail" for any nonzero one.
function(run_cli expect)
    execute_process(COMMAND "${CLI}" ${ARGN}
        OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
    if((expect STREQUAL "fail" AND rc EQUAL 0) OR
       (NOT expect STREQUAL "fail" AND NOT rc EQUAL expect))
        list(JOIN ARGN " " cmd)
        message(FATAL_ERROR "`uvmasync ${cmd}` exited ${rc}, "
                            "expected ${expect}:\n${out}\n${err}")
    endif()
    set(cli_err "${err}" PARENT_SCOPE)
endfunction()

function(expect_same a b)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
        "${a}" "${b}" RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${a} and ${b} differ")
    endif()
endfunction()

run_cli(0 ${run_args} --journal "${WORK}/ref.jsonl"
        --out "${WORK}/ref.csv")

# Change the first hex digit after "0x1." of the first record's first
# `runs` value (the header has no runs).
file(READ "${WORK}/ref.jsonl" journal)
set(anchor "\"runs\":[[\"0x1.")
string(FIND "${journal}" "${anchor}" pos)
if(pos LESS 0)
    message(FATAL_ERROR "no runs value in the journal:\n${journal}")
endif()
string(LENGTH "${anchor}" len)
math(EXPR at "${pos} + ${len}")
math(EXPR after "${at} + 1")
string(SUBSTRING "${journal}" ${at} 1 digit)
if(digit STREQUAL "0")
    set(digit 1)
else()
    set(digit 0)
endif()
string(SUBSTRING "${journal}" 0 ${at} head)
string(SUBSTRING "${journal}" ${after} -1 tail)
file(WRITE "${WORK}/run.jsonl" "${head}${digit}${tail}")
file(COPY_FILE "${WORK}/run.jsonl" "${WORK}/damaged.jsonl")

run_cli(1 fsck "${WORK}/run.jsonl")
run_cli(fail ${run_args} --resume "${WORK}/run.jsonl"
        --out "${WORK}/bad.csv")
if(NOT cli_err MATCHES "fsck --repair")
    message(FATAL_ERROR "refusal does not point at fsck --repair:\n"
                        "${cli_err}")
endif()
expect_same("${WORK}/run.jsonl" "${WORK}/damaged.jsonl")

run_cli(0 fsck --repair "${WORK}/run.jsonl")
run_cli(0 fsck "${WORK}/run.jsonl")
run_cli(0 ${run_args} --resume "${WORK}/run.jsonl"
        --out "${WORK}/res.csv")
expect_same("${WORK}/run.jsonl" "${WORK}/ref.jsonl")
expect_same("${WORK}/res.csv" "${WORK}/ref.csv")
file(REMOVE_RECURSE "${WORK}")
