# Tracing smoke test (driven by ctest, see CMakeLists.txt).
#
# Runs one small campaign as two concurrent dmdc_sim shard processes
# with --trace=all. Each process writes its own shard-tagged Chrome
# trace file; trace_merge must combine them into a document that
# re-validates and carries kernel and runner events from both
# processes, and journal_merge of the traced shard journals must stay
# byte-identical to an untraced serial run.

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(campaign
    --bench=gzip,swim --scheme=baseline,yla --insts=20000 --warmup=2000
    --json-deterministic)

execute_process(
    COMMAND ${DMDC_SIM} ${campaign} --cache-dir=${WORK_DIR}/serial_cache
            --json=${WORK_DIR}/serial.json
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "serial campaign failed (exit ${rc})")
endif()

# Both shards in one execute_process call run concurrently. Each
# redirects its own output, so the pipe CMake places between them
# carries nothing.
set(shard_cmds)
foreach(shard 0 1)
    string(JOIN " " args ${DMDC_SIM} ${campaign} --shard=${shard}/2
           --trace=all --trace-out=${WORK_DIR}/trace.json
           --cache-dir=${WORK_DIR}/traced_cache --jobs=2
           --json=${WORK_DIR}/shard${shard}.json)
    list(APPEND shard_cmds COMMAND sh -c
         "exec ${args} >${WORK_DIR}/shard${shard}.log 2>&1 </dev/null")
endforeach()
execute_process(${shard_cmds} RESULTS_VARIABLE rcs)
if(NOT rcs STREQUAL "0;0")
    message(FATAL_ERROR
        "traced shard processes failed (exits ${rcs}); see "
        "${WORK_DIR}/shard*.log")
endif()

# Tracing must not perturb results: the merged traced journals must
# equal the untraced serial journal byte-for-byte.
execute_process(
    COMMAND ${JOURNAL_MERGE} ${WORK_DIR}/shard0.json
            ${WORK_DIR}/shard1.json --out=${WORK_DIR}/merged.json
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "journal_merge failed (exit ${rc})")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/serial.json ${WORK_DIR}/merged.json
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "traced merged journal differs from the serial journal")
endif()

execute_process(
    COMMAND ${TRACE_MERGE}
            ${WORK_DIR}/trace.shard0of2.json
            ${WORK_DIR}/trace.shard1of2.json
            --out=${WORK_DIR}/trace.merged.json
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "trace_merge failed (exit ${rc})")
endif()

# The merged document must itself pass trace_merge's strict
# validation (i.e. parse as one well-formed trace).
execute_process(
    COMMAND ${TRACE_MERGE} ${WORK_DIR}/trace.merged.json
            --out=${WORK_DIR}/trace.revalidated.json
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "merged trace failed re-validation (exit ${rc})")
endif()

file(READ "${WORK_DIR}/trace.merged.json" merged_trace)
foreach(cat kernel runner)
    string(REGEX MATCHALL "\"pid\":[0-9]+,\"tid\":[0-9]+,\"cat\":\"${cat}\""
           hits "${merged_trace}")
    set(pids)
    foreach(hit IN LISTS hits)
        string(REGEX REPLACE "^\"pid\":([0-9]+),.*" "\\1" pid "${hit}")
        list(APPEND pids ${pid})
    endforeach()
    list(REMOVE_DUPLICATES pids)
    list(LENGTH pids npids)
    if(NOT npids EQUAL 2)
        message(FATAL_ERROR
            "merged trace has \"${cat}\" events from ${npids} "
            "process(es), expected 2")
    endif()
endforeach()

message(STATUS "trace smoke: merged trace carries kernel and runner "
               "events from both shards and the traced journal is "
               "byte-identical")
