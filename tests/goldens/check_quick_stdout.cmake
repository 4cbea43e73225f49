# One stdout golden ctest: run `imx_sweep <name> [ARGS...]`, write its
# stdout to OUT, and compare the file's SHA-256 with the pinned hash from
# quick_stdout.sha256 (ARGS=--quick), full_stdout.sha256 (no ARGS) or
# list_stdout.sha256 (NAME=--list).
#
#   cmake -DSWEEP=<imx_sweep> -DNAME=<experiment|--list> -DEXPECTED=<sha256>
#         -DOUT=<file> [-DARGS=--quick] -P check_quick_stdout.cmake
foreach(var SWEEP NAME EXPECTED OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "check_quick_stdout.cmake: -D${var}= is required")
    endif()
endforeach()
set(command_line "imx_sweep ${NAME} ${ARGS}")

# The output goes to a file of this run's own first, so two ctest runs in one
# build tree never hash each other's half-written output; the atomic rename
# then leaves the latest complete output at OUT.
string(RANDOM LENGTH 16 run_id)
set(capture "${OUT}.${run_id}")
execute_process(COMMAND "${SWEEP}" "${NAME}" ${ARGS}
                OUTPUT_FILE "${capture}"
                RESULT_VARIABLE status)
file(SHA256 "${capture}" actual)
file(RENAME "${capture}" "${OUT}")
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${command_line} failed: ${status}")
endif()

if(NOT actual STREQUAL EXPECTED)
    message(FATAL_ERROR
        "${command_line} stdout moved\n"
        "  pinned: ${EXPECTED}\n"
        "  actual: ${actual}\n"
        "  output: ${OUT}")
endif()
