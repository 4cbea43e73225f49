# One QuickStdout.<name> ctest: run `imx_sweep <name> --quick`, write its
# stdout to OUT, and compare the file's SHA-256 with the pinned hash from
# quick_stdout.sha256.
#
#   cmake -DSWEEP=<imx_sweep> -DNAME=<experiment> -DEXPECTED=<sha256>
#         -DOUT=<file> -P check_quick_stdout.cmake
foreach(var SWEEP NAME EXPECTED OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "check_quick_stdout.cmake: -D${var}= is required")
    endif()
endforeach()

execute_process(COMMAND "${SWEEP}" "${NAME}" --quick
                OUTPUT_FILE "${OUT}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "imx_sweep ${NAME} --quick failed: ${status}")
endif()

file(SHA256 "${OUT}" actual)
if(NOT actual STREQUAL EXPECTED)
    message(FATAL_ERROR
        "imx_sweep ${NAME} --quick stdout moved\n"
        "  pinned: ${EXPECTED}\n"
        "  actual: ${actual}\n"
        "  output: ${OUT}")
endif()
