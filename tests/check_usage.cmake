# Runs BIN with ARGS and passes only when it refuses them: exit status
# STATUS (default 1) and a usage line on stderr. A crash, a run of the
# sweep, a server that starts serving (killed after 20 s), or any other
# status fails.
#
#   cmake -DBIN=<binary> [-DARGS="<arg> ..."] [-DSTATUS=<n>] -P check_usage.cmake

if(NOT DEFINED STATUS)
  set(STATUS 1)
endif()
separate_arguments(ARGS UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND ${BIN} ${ARGS}
  RESULT_VARIABLE RUN_RC
  OUTPUT_QUIET
  ERROR_VARIABLE STDERR
  TIMEOUT 20)
if(NOT RUN_RC STREQUAL "${STATUS}" OR NOT STDERR MATCHES "usage: ")
  message(FATAL_ERROR
    "expected a usage line and exit status ${STATUS}, got '${RUN_RC}':\n"
    "${STDERR}")
endif()
