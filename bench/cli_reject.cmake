# Runs BIN with the space-separated ARGS and passes only when it exits 2
# and its stderr contains EXPECT.
#
#   cmake -DBIN=path -DARGS="--ports 6" -DEXPECT="..." -P cli_reject.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BIN} ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 8)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "${BIN} ${ARGS}: exit '${status}', expected 2\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${BIN} ${ARGS}: stderr lacks \"${EXPECT}\":\n${err}")
endif()
