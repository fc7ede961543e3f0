# Runs BIN with ARGS and passes only when it refuses them: exit status
# STATUS (default 1) and a usage line on stderr, containing USAGE when that
# is given. A crash, a run of the sweep, a server that starts serving
# (killed after 20 s), or any other status fails.
#
#   cmake -DBIN=<binary> [-DARGS="<arg> ..."] [-DSTATUS=<n>]
#         [-DUSAGE=<text>] -P check_usage.cmake

if(NOT DEFINED STATUS)
  set(STATUS 1)
endif()
if(NOT DEFINED USAGE)
  set(USAGE "usage: ")
endif()
separate_arguments(ARGS UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND ${BIN} ${ARGS}
  RESULT_VARIABLE RUN_RC
  OUTPUT_QUIET
  ERROR_VARIABLE STDERR
  TIMEOUT 20)
string(FIND "${STDERR}" "${USAGE}" USAGE_AT)
if(NOT RUN_RC STREQUAL "${STATUS}" OR USAGE_AT EQUAL -1)
  message(FATAL_ERROR
    "expected '${USAGE}' and exit status ${STATUS}, got '${RUN_RC}':\n"
    "${STDERR}")
endif()
