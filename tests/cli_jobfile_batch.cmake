# Checks that `uvmasync run --jobfile` is an ordinary batch: its
# journal is byte-identical at UVMASYNC_JOBS=1 and 4, a resume from
# the journal cut to its header and two records reproduces the
# uninterrupted stdout and journal, and the job file's content and
# --pinned are its identity: after one changed byte in the file, or
# with --pinned added, --resume refuses the old journal.
#
#   cmake -DCLI=build/tools/uvmasync -DJOBFILE=examples/jobs/stencil.ini
#         -DWORK=/tmp/jobfile_batch -P tests/cli_jobfile_batch.cmake
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
file(COPY_FILE "${JOBFILE}" "${WORK}/job.ini")
set(run_args run --jobfile "${WORK}/job.ini" --no-store)

# Run the CLI with UVMASYNC_JOBS=JOBS; EXPECT is an exit code, or
# "fail" for any nonzero one.
function(run_cli jobs expect)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env UVMASYNC_JOBS=${jobs}
                "${CLI}" ${ARGN}
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

function(expect_refused)
    if(NOT cli_err MATCHES "written for a different campaign")
        message(FATAL_ERROR "--resume did not refuse the journal as "
                            "another campaign's:\n${cli_err}")
    endif()
endfunction()

run_cli(1 0 ${run_args} --journal "${WORK}/j1.jsonl"
        --out "${WORK}/out1.txt")
run_cli(4 0 ${run_args} --journal "${WORK}/j4.jsonl"
        --out "${WORK}/out4.txt")
expect_same("${WORK}/j1.jsonl" "${WORK}/j4.jsonl")
expect_same("${WORK}/out1.txt" "${WORK}/out4.txt")

# Cut the journal to its header and the first two records.
file(STRINGS "${WORK}/j1.jsonl" lines)
list(LENGTH lines count)
if(NOT count EQUAL 6)
    message(FATAL_ERROR "expected a header and 5 records, got "
                        "${count} lines")
endif()
list(SUBLIST lines 0 3 kept)
list(JOIN kept "\n" cut)
file(WRITE "${WORK}/resume.jsonl" "${cut}\n")
run_cli(4 0 ${run_args} --resume "${WORK}/resume.jsonl"
        --out "${WORK}/resumed.txt")
if(NOT cli_err MATCHES "2 of 5 points already complete")
    message(FATAL_ERROR "the resume restored the wrong points:\n"
                        "${cli_err}")
endif()
expect_same("${WORK}/resumed.txt" "${WORK}/out1.txt")
expect_same("${WORK}/resume.jsonl" "${WORK}/j1.jsonl")

# --pinned changes the job's identity.
file(COPY_FILE "${WORK}/j1.jsonl" "${WORK}/stale.jsonl")
run_cli(1 fail ${run_args} --pinned --resume "${WORK}/stale.jsonl")
expect_refused()

# So does one changed byte of the job file (a comment's first letter).
file(READ "${WORK}/job.ini" job)
string(FIND "${job}" "# " at)
if(at LESS 0)
    message(FATAL_ERROR "no comment in ${JOBFILE}")
endif()
math(EXPR at "${at} + 2")
math(EXPR after "${at} + 1")
string(SUBSTRING "${job}" 0 ${at} head)
string(SUBSTRING "${job}" ${after} -1 tail)
file(WRITE "${WORK}/job.ini" "${head}#${tail}")
run_cli(1 fail ${run_args} --resume "${WORK}/stale.jsonl")
expect_refused()
file(REMOVE_RECURSE "${WORK}")
