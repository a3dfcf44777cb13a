# Checks `uvmasync run --jobfile`: the stencil example runs all five
# modes to stdout, its one full-gate lint prints the UAL021 dead-write
# warning once, and the jobfile path prints no advisor line.
#
#   cmake -DCLI=build/tools/uvmasync -DJOBFILE=examples/jobs/stencil.ini
#         -P tests/cli_jobfile_run.cmake
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
