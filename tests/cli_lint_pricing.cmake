# Checks that a `uvmasync run --mode all` batch prints the same lint
# findings at any job count: the job is priced once per batch, by its
# first point, and every finding line still reaches stderr once.
# saxpy @ super prints UAL006 from a structural pass and three UAL020
# notes from the cost advisor.
#
#   cmake -DCLI=build/tools/uvmasync -P tests/cli_lint_pricing.cmake

function(finding_lines jobs outvar)
    execute_process(
        COMMAND "${CLI}" run --workload saxpy --size super --mode all
                --runs 1 --no-store --jobs ${jobs}
        OUTPUT_QUIET
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "uvmasync run --jobs ${jobs} exited with "
                            "${rc}:\n${err}")
    endif()
    string(REGEX MATCHALL "[^\n]+" lines "${err}")
    list(FILTER lines INCLUDE REGEX "\\[UAL[0-9]+\\]")
    list(SORT lines)
    set(${outvar} "${lines}" PARENT_SCOPE)
endfunction()

finding_lines(1 serial)
finding_lines(4 parallel)
if(NOT serial STREQUAL parallel)
    string(REPLACE ";" "\n" serial "${serial}")
    string(REPLACE ";" "\n" parallel "${parallel}")
    message(FATAL_ERROR "finding lines differ between --jobs 1:\n"
                        "${serial}\nand --jobs 4:\n${parallel}")
endif()
list(FILTER serial INCLUDE REGEX "UAL020")
list(LENGTH serial dominated)
if(NOT dominated EQUAL 3)
    message(FATAL_ERROR "expected 3 UAL020 notes, got ${dominated}")
endif()
