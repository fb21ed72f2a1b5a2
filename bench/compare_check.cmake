# Exit-code checks for bench_compare.py, the one A/B judge: each case
# compares a candidate export against the baseline fixture and
# requires an exact exit code (WILL_FAIL would also accept a crash).
# Single-gauge variants of run_b.json are written to WORK_DIR.
#
# Inputs: -DCOMPARE=bench_compare.py -DBASELINE=run_a.json
#         -DFIXTURES=bench/fixtures -DWORK_DIR=<scratch dir>

find_program(PYTHON3 python3 REQUIRED)
file(MAKE_DIRECTORY ${WORK_DIR})
file(READ ${FIXTURES}/run_b.json within)

# Writes run_b.json with one gauge set to VALUE to WORK_DIR/NAME.json.
function(variant name gauge value)
    string(JSON text SET "${within}" gauges ${gauge} ${value})
    file(WRITE ${WORK_DIR}/${name}.json "${text}")
endfunction()

function(expect want candidate why)
    execute_process(COMMAND ${PYTHON3} ${COMPARE} ${BASELINE} ${candidate}
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT rc STREQUAL "${want}")
        message(FATAL_ERROR "${why}: exit '${rc}', want ${want}\n"
                            "${out}${err}")
    endif()
endfunction()

# The baseline's p99 gauge is 1069.336 µs, in LogHistogram bucket 80.
variant(lookups_halved zooindex.zoo512.lookups_per_sec 10000.0)
variant(p99_up3 bench.stage.extract.p99_micros 1386.758) # bucket 83
variant(p99_up2 bench.stage.extract.p99_micros 1271.7)   # bucket 82
# The baseline's lookups gauge is missing here, and this one (which
# would fail if judged) is missing from the baseline.
string(JSON lookups_renamed SET "${within}"
       gauges zooindex.zoo4096.lookups_per_sec 1.0)
string(JSON lookups_renamed REMOVE "${lookups_renamed}"
       gauges zooindex.zoo512.lookups_per_sec)
file(WRITE ${WORK_DIR}/lookups_renamed.json "${lookups_renamed}")
file(WRITE ${WORK_DIR}/ungated.json
     "{\"counters\":{},\"gauges\":{\"run.complete\":1.0}}\n")

expect(0 ${FIXTURES}/run_b.json "every gauge within its band")
expect(1 ${FIXTURES}/run_regress.json "real_time up 40%")
expect(1 ${WORK_DIR}/lookups_halved.json "lookups_per_sec down 50%")
expect(1 ${WORK_DIR}/p99_up3.json "p99 up 3 log buckets")
expect(0 ${WORK_DIR}/p99_up2.json "p99 up 2 log buckets")
expect(0 ${WORK_DIR}/lookups_renamed.json "gauges in one file each")
expect(2 ${WORK_DIR}/ungated.json "no gated gauge")
