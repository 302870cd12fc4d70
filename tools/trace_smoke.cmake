# Tracing smoke test (driven by ctest, see CMakeLists.txt).
#
# Runs one small campaign as two concurrent dmdc_sim processes with
# --trace=all, each with its own --trace-out and --json. Both run with
# --no-cache, so each simulates every run and records kernel and
# runner events (on a shared cache one process could serve the other
# everything). trace_merge must combine the two trace files into a
# document that re-validates and carries kernel and runner events from
# both processes, and each traced journal must stay byte-identical to
# an untraced serial run.

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(campaign
    --bench=gzip,swim --scheme=baseline,yla --insts=20000 --warmup=2000
    --no-cache --json-deterministic)

execute_process(
    COMMAND ${DMDC_SIM} ${campaign} --json=${WORK_DIR}/serial.json
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "serial campaign failed (exit ${rc})")
endif()

# Both processes in one execute_process call run concurrently. Each
# redirects its own output, so the pipe CMake places between them
# carries nothing.
set(traced_cmds)
foreach(proc 0 1)
    string(JOIN " " args ${DMDC_SIM} ${campaign} --jobs=2
           --trace=all --trace-out=${WORK_DIR}/trace${proc}.json
           --json=${WORK_DIR}/journal${proc}.json)
    list(APPEND traced_cmds COMMAND sh -c
         "exec ${args} >${WORK_DIR}/traced${proc}.log 2>&1 </dev/null")
endforeach()
execute_process(${traced_cmds} RESULTS_VARIABLE rcs)
if(NOT rcs STREQUAL "0;0")
    message(FATAL_ERROR
        "traced processes failed (exits ${rcs}); see "
        "${WORK_DIR}/traced*.log")
endif()

# Tracing must not perturb results: each traced journal must equal the
# untraced serial journal byte-for-byte.
foreach(proc 0 1)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORK_DIR}/serial.json ${WORK_DIR}/journal${proc}.json
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "traced journal ${proc} differs from the serial journal")
    endif()
endforeach()

execute_process(
    COMMAND ${TRACE_MERGE}
            ${WORK_DIR}/trace0.json ${WORK_DIR}/trace1.json
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
               "events from both processes and the traced journals are "
               "byte-identical")
