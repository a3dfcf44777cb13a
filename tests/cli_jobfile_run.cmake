# Checks `uvmasync run --jobfile`: the stencil example runs all five
# modes to stdout, its one full-gate lint prints the UAL021 dead-write
# warning once, and the jobfile path prints no advisor line. A copy
# whose job name holds a control character (0x01) then runs with
# --trace, and the export must be valid JSON with that byte escaped.
#
#   cmake -DCLI=build/tools/uvmasync -DJOBFILE=examples/jobs/stencil.ini
#         -DWORK=/tmp/jobfile_run -P tests/cli_jobfile_run.cmake
execute_process(
    COMMAND "${CLI}" run --jobfile "${JOBFILE}" --no-store
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "uvmasync run --jobfile exited with ${rc}:\n"
                        "${err}")
endif()

string(REGEX MATCHALL "[^\n]+" lines "${out}")
list(FILTER lines INCLUDE REGEX
     "^\\| (standard|async|uvm|uvm_prefetch|uvm_prefetch_async) +\\|")
list(LENGTH lines rows)
if(NOT rows EQUAL 5)
    message(FATAL_ERROR "expected 5 mode rows, got ${rows}:\n${out}")
endif()

string(REGEX MATCHALL "[^\n]+" errLines "${err}")
set(dead "${errLines}")
list(FILTER dead INCLUDE REGEX "\\[UAL021\\]")
list(LENGTH dead deadCount)
if(NOT deadCount EQUAL 1)
    message(FATAL_ERROR "expected one UAL021 line, got ${deadCount}:\n"
                        "${err}")
endif()
if(err MATCHES "advisor:")
    message(FATAL_ERROR "the jobfile run printed an advisor line:\n"
                        "${err}")
endif()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
file(READ "${JOBFILE}" job)
string(ASCII 1 ctl)
string(REPLACE "name = jacobi_stencil" "name = jacobi${ctl}stencil"
       renamed "${job}")
if(renamed STREQUAL job)
    message(FATAL_ERROR "no 'name = jacobi_stencil' line in ${JOBFILE}")
endif()
file(WRITE "${WORK}/ctl.ini" "${renamed}")
execute_process(
    COMMAND "${CLI}" run --jobfile "${WORK}/ctl.ini" --no-store
            --trace "${WORK}/trace.json"
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "traced run exited with ${rc}:\n${err}")
endif()
file(READ "${WORK}/trace.json" trace)
string(JSON events ERROR_VARIABLE jsonErr LENGTH "${trace}" traceEvents)
if(jsonErr)
    message(FATAL_ERROR "the trace is not valid JSON: ${jsonErr}")
endif()
string(FIND "${trace}" "${ctl}" raw)
if(NOT raw EQUAL -1 OR NOT trace MATCHES "jacobi\\\\u0001stencil/standard")
    message(FATAL_ERROR "the trace does not escape the 0x01 in the "
                        "job name")
endif()
file(REMOVE_RECURSE "${WORK}")
