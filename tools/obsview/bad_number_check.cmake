# Runs obsview with malformed --threshold and --top values and
# requires exit code 2 (bad input) for each, with a message on stderr.
foreach(args "--threshold;abc" "--threshold;1e999" "--top;-3" "--top;8x")
    execute_process(COMMAND ${OBSVIEW} ${args} ${FIXTURE}
                    RESULT_VARIABLE rc
                    OUTPUT_QUIET
                    ERROR_VARIABLE err)
    if(NOT rc STREQUAL "2")
        message(FATAL_ERROR "obsview ${args}: exit '${rc}', want 2")
    endif()
    if(err STREQUAL "")
        message(FATAL_ERROR "obsview ${args}: no message on stderr")
    endif()
endforeach()
