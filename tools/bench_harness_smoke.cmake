# Bench harness smoke test (driven by ctest, see CMakeLists.txt).
#
# Runs all 14 paper harnesses on a tiny budget, once on one worker and
# once on three. Each run must exit 0 and submit its whole grid as one
# campaign (exactly one "campaign:" line on stderr), and the two runs
# must print the same tables and write the same --json-deterministic
# journal. A third pass, in which every run fails, must exit 4
# (degraded) and print no numeric data cell: the lines between the
# banner and the footnote that it shares with the healthy run may hold
# "n/a", labels and integers, but no "0.0" or "0%".

set(harnesses
    fig2_yla_filtering fig3_bloom_filter fig4_dmdc_main
    fig5_local_vs_global table2_checking_window table3_false_replays
    table4_local_window table5_local_replays table6_invalidations
    sec3_sq_filtering sec61_yla_energy sec623_checking_queue
    ablation_table_size related_agetable)
set(budget --bench=gzip,swim --insts=20000 --warmup=2000 --no-cache)
# A decimal number or a percentage standing as a cell.
set(numeric_cell "(^|[ (]|\\[)-?[0-9]+(\\.[0-9]+%?|%)( |,|\\)|]|$)")

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

foreach(h IN LISTS harnesses)
    set(out "${WORK_DIR}/${h}")
    foreach(jobs 1 3)
        execute_process(
            COMMAND ${BENCH_DIR}/${h} ${budget} --jobs=${jobs}
                    --json=${out}.j${jobs}.json --json-deterministic
            OUTPUT_FILE ${out}.j${jobs}.out
            ERROR_FILE ${out}.j${jobs}.err
            RESULT_VARIABLE rc)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR "${h} --jobs=${jobs} exited ${rc}")
        endif()
        file(STRINGS ${out}.j${jobs}.err campaigns
             REGEX "campaign: [0-9]+ runs")
        list(LENGTH campaigns n)
        if(NOT n EQUAL 1)
            message(FATAL_ERROR
                "${h} --jobs=${jobs} submitted ${n} campaigns, expected 1")
        endif()
    endforeach()
    foreach(ext out json)
        execute_process(
            COMMAND ${CMAKE_COMMAND} -E compare_files
                    ${out}.j1.${ext} ${out}.j3.${ext}
            RESULT_VARIABLE rc)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR
                "${h}: ${out}.j1.${ext} and ${out}.j3.${ext} differ")
        endif()
    endforeach()

    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env DMDC_FAULT=run-throw:p=1
                ${BENCH_DIR}/${h} ${budget} --jobs=1 --max-retries=0
        OUTPUT_FILE ${out}.degraded.out
        ERROR_FILE ${out}.degraded.err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 4)
        message(FATAL_ERROR "${h} with every run failing exited ${rc}, "
                            "expected 4")
    endif()

    # Data lines: the degraded stdout minus the leading and trailing
    # lines it shares with the healthy run (banner, headers, footnote).
    file(STRINGS ${out}.j1.out ok)
    file(STRINGS ${out}.degraded.out degraded)
    list(LENGTH ok n_ok)
    list(LENGTH degraded n_deg)
    set(first 0)
    while(first LESS n_ok AND first LESS n_deg)
        list(GET ok ${first} a)
        list(GET degraded ${first} b)
        if(NOT a STREQUAL b)
            break()
        endif()
        math(EXPR first "${first} + 1")
    endwhile()
    math(EXPR last_ok "${n_ok} - 1")
    math(EXPR last "${n_deg} - 1")
    while(last GREATER_EQUAL first AND last_ok GREATER_EQUAL 0)
        list(GET ok ${last_ok} a)
        list(GET degraded ${last} b)
        if(NOT a STREQUAL b)
            break()
        endif()
        math(EXPR last "${last} - 1")
        math(EXPR last_ok "${last_ok} - 1")
    endwhile()
    set(saw_na FALSE)
    if(first LESS_EQUAL last)
        foreach(i RANGE ${first} ${last})
            list(GET degraded ${i} line)
            if(line MATCHES "${numeric_cell}")
                message(FATAL_ERROR
                    "${h} with every run failing prints a number in a "
                    "data cell: '${line}'")
            endif()
            if(line MATCHES "n/a")
                set(saw_na TRUE)
            endif()
        endforeach()
    endif()
    if(NOT saw_na)
        message(FATAL_ERROR
            "${h} with every run failing prints no n/a cell")
    endif()
endforeach()

list(LENGTH harnesses n)
message(STATUS "bench harness smoke: ${n} harnesses each ran one "
               "campaign with identical output on 1 and 3 workers, and "
               "print only n/a cells when every run fails")
