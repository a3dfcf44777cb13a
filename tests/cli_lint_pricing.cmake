# Checks that a `uvmasync run --mode all` batch prints the same lint
# findings at any job count: the job is priced once per batch, by its
# first point, and every finding line still reaches stderr once.
# saxpy @ super prints UAL006 from a structural pass and three UAL020
# notes from the cost advisor. The pricing point also prints exactly
# one `advisor:` line, and a --no-lint run prints none.
#
#   cmake -DCLI=build/tools/uvmasync -P tests/cli_lint_pricing.cmake

# Runs the batch with the extra arguments ${ARGN}; sets @p outvar to
# the sorted finding lines and @p advisorvar to the advisor-line count.
function(finding_lines jobs outvar advisorvar)
    execute_process(
        COMMAND "${CLI}" run --workload saxpy --size super --mode all
                --runs 1 --no-store --jobs ${jobs} ${ARGN}
        OUTPUT_QUIET
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "uvmasync run --jobs ${jobs} exited with "
                            "${rc}:\n${err}")
    endif()
    string(REGEX MATCHALL "[^\n]+" lines "${err}")
    set(advisor "${lines}")
    list(FILTER advisor INCLUDE REGEX "advisor:")
    list(LENGTH advisor advisorCount)
    list(FILTER lines INCLUDE REGEX "\\[UAL[0-9]+\\]")
    list(SORT lines)
    set(${outvar} "${lines}" PARENT_SCOPE)
    set(${advisorvar} ${advisorCount} PARENT_SCOPE)
endfunction()

finding_lines(1 serial serialAdvisor)
finding_lines(4 parallel parallelAdvisor)
finding_lines(4 unlinted unlintedAdvisor --no-lint)
if(NOT serialAdvisor EQUAL 1 OR NOT parallelAdvisor EQUAL 1)
    message(FATAL_ERROR "expected one advisor line at --jobs 1 and 4, "
                        "got ${serialAdvisor} and ${parallelAdvisor}")
endif()
if(NOT unlintedAdvisor EQUAL 0 OR NOT "${unlinted}" STREQUAL "")
    message(FATAL_ERROR "--no-lint printed ${unlintedAdvisor} advisor "
                        "line(s) and findings:\n${unlinted}")
endif()
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
