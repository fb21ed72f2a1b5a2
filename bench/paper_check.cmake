# ctest glue for the paper gate: run one figure/table/ablation binary
# or example, require exit 0 (its own shape check), and require the
# SHA-256 of its stdout to equal the row for NAME in the committed
# digest table (bench/paper_digests.txt). A change that moves a figure
# on purpose edits that row and says which figure moved and why.
#
# Inputs: -DBIN=... -DNAME=... -DDIGESTS=...

execute_process(COMMAND ${BIN}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NAME} exited ${rc}: the paper's shape is not "
                        "reproduced\n${out}\n${err}")
endif()

string(SHA256 got "${out}")
file(STRINGS ${DIGESTS} rows REGEX "^${NAME} ")
if(NOT rows)
    message(FATAL_ERROR "${NAME} has no row in ${DIGESTS}; add "
                        "`${NAME} ${got}`")
endif()
string(REGEX REPLACE "^${NAME} +([0-9a-f]+).*$" "\\1" want "${rows}")
if(NOT want STREQUAL got)
    message(FATAL_ERROR "${NAME} stdout moved: sha256 ${got}, pinned "
                        "${want}\n${out}")
endif()
