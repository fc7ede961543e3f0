# Runs BIN with ARGS and passes only when it refuses them: exit status 1
# and a usage line on stderr. A crash, a run of the sweep, or any other
# status fails.
#
#   cmake -DBIN=<binary> [-DARGS="<arg> ..."] -P check_usage.cmake

separate_arguments(ARGS UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND ${BIN} ${ARGS}
  RESULT_VARIABLE RUN_RC
  OUTPUT_QUIET
  ERROR_VARIABLE STDERR)
if(NOT RUN_RC STREQUAL "1" OR NOT STDERR MATCHES "usage: ")
  message(FATAL_ERROR
    "expected a usage line and exit status 1, got '${RUN_RC}':\n${STDERR}")
endif()
