# Tracing smoke test (driven by ctest, see CMakeLists.txt).
#
# Runs one small campaign as two concurrent dmdc_sim processes with
# --trace=all in one working directory and no --trace-out. Both run
# with --no-cache, so each simulates every run and records kernel and
# runner events (on a shared cache one process could serve the other
# everything). Each process must write its own trace.<pid>.json
# holding kernel and runner events of that one pid, the two pids must
# differ, and each traced journal must stay byte-identical to an
# untraced serial run.

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/run")

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
    string(JOIN " " args ${DMDC_SIM} ${campaign} --jobs=2 --trace=all
           --json=${WORK_DIR}/journal${proc}.json)
    list(APPEND traced_cmds COMMAND sh -c
         "exec ${args} >${WORK_DIR}/traced${proc}.log 2>&1 </dev/null")
endforeach()
execute_process(${traced_cmds} WORKING_DIRECTORY ${WORK_DIR}/run
                RESULTS_VARIABLE rcs)
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

file(GLOB traces "${WORK_DIR}/run/trace.*.json")
list(LENGTH traces ntraces)
if(NOT ntraces EQUAL 2)
    message(FATAL_ERROR
        "expected 2 trace.<pid>.json files, found ${ntraces}: ${traces}")
endif()

set(file_pids)
foreach(trace IN LISTS traces)
    get_filename_component(name "${trace}" NAME)
    file(READ "${trace}" text)
    foreach(cat kernel runner)
        string(REGEX MATCHALL
               "\"pid\":[0-9]+,\"tid\":[0-9]+,\"cat\":\"${cat}\""
               hits "${text}")
        set(pids)
        foreach(hit IN LISTS hits)
            string(REGEX REPLACE "^\"pid\":([0-9]+),.*" "\\1" pid
                   "${hit}")
            list(APPEND pids ${pid})
        endforeach()
        list(REMOVE_DUPLICATES pids)
        list(LENGTH pids npids)
        if(NOT npids EQUAL 1)
            message(FATAL_ERROR
                "${name} has \"${cat}\" events from ${npids} "
                "process(es), expected 1")
        endif()
        if(NOT name STREQUAL "trace.${pids}.json")
            message(FATAL_ERROR
                "${name} holds \"${cat}\" events of pid ${pids}")
        endif()
    endforeach()
    list(APPEND file_pids ${pids})
endforeach()
list(REMOVE_DUPLICATES file_pids)
list(LENGTH file_pids npids)
if(NOT npids EQUAL 2)
    message(FATAL_ERROR "both trace files carry pid ${file_pids}")
endif()

message(STATUS "trace smoke: two concurrent processes wrote one "
               "trace.<pid>.json each with their own kernel and runner "
               "events, and the traced journals are byte-identical")
