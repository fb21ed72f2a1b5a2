# Runs obsview with malformed --top values and requires exit code 2
# (bad input) for each, with a message on stderr.
foreach(args "--top;-3" "--top;8x" "--top;99999999999999999999999")
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
