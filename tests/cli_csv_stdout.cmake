# Checks that `uvmasync run --csv` keeps stdout for data: the CSV
# header comes first, then one row per mode, while the advisor line
# and lint notes go to stderr.
#
#   cmake -DCLI=build/tools/uvmasync -P tests/cli_csv_stdout.cmake
execute_process(
    COMMAND "${CLI}" run --workload saxpy --size tiny --mode all
            --runs 1 --csv --no-store
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "uvmasync run exited with ${rc}:\n${err}")
endif()

string(REGEX MATCHALL "[^\n]+" lines "${out}")
list(LENGTH lines count)
if(NOT count EQUAL 6)
    message(FATAL_ERROR "expected a header and 5 rows, got:\n${out}")
endif()
list(POP_FRONT lines header)
if(NOT header MATCHES "^workload,mode,size,")
    message(FATAL_ERROR "stdout does not start with the CSV header:\n"
                        "${out}")
endif()
foreach(line IN LISTS lines)
    if(NOT line MATCHES "^saxpy,")
        message(FATAL_ERROR "non-data line on stdout: ${line}")
    endif()
endforeach()
if(NOT err MATCHES "info: advisor: saxpy")
    message(FATAL_ERROR "advisor line missing from stderr:\n${err}")
endif()
