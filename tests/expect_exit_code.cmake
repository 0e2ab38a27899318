# Runs BIN with ARGS (a ;-list) and fails unless it exits with exactly
# EXPECT — a usage error must be exit 2, not merely "some failure".
#
#   cmake -DBIN=path -DARGS="--bogus;1" -DEXPECT=2 -P expect_exit_code.cmake
execute_process(COMMAND "${BIN}" ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "${BIN} ${ARGS}: exit ${rc}, expected ${EXPECT}\n${err}")
endif()
