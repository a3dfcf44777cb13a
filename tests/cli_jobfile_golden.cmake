# Pins the stdout of `uvmasync run --jobfile` byte for byte: the
# stencil example plain and with --metrics, the gather/scatter example
# plain and with --pinned. The job-file paths are relative to the
# source tree, since the header line quotes them.
#
#   cmake -DCLI=build/tools/uvmasync -DSRC=. -DWORK=/tmp/jobfile_golden \
#         [-DUPDATE=ON] -P tests/cli_jobfile_golden.cmake
#
# UPDATE=ON rewrites tests/golden/jobfile_runs.txt instead of
# comparing; do that only after an intended model change.
set(golden "${SRC}/tests/golden/jobfile_runs.txt")
set(cases
    "examples/jobs/stencil.ini"
    "examples/jobs/stencil.ini|--metrics"
    "examples/jobs/gather_scatter.ini"
    "examples/jobs/gather_scatter.ini|--pinned")

set(all "")
foreach(case IN LISTS cases)
    string(REPLACE "|" " " title "${case}")
    string(REPLACE "|" ";" case_args "${case}")
    execute_process(
        COMMAND "${CLI}" run --jobfile ${case_args} --no-store
        WORKING_DIRECTORY "${SRC}"
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "`uvmasync run --jobfile ${title}` exited "
                            "${rc}:\n${err}")
    endif()
    string(APPEND all "===== run --jobfile ${title} =====\n${out}")
endforeach()

if(UPDATE)
    file(WRITE "${golden}" "${all}")
    message(STATUS "wrote ${golden}")
    return()
endif()

file(MAKE_DIRECTORY "${WORK}")
file(WRITE "${WORK}/jobfile_runs.txt" "${all}")
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    "${golden}" "${WORK}/jobfile_runs.txt" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "job-file output differs from the golden; "
                        "compare ${golden} with "
                        "${WORK}/jobfile_runs.txt")
endif()
file(REMOVE_RECURSE "${WORK}")
