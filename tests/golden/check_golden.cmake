# Runs a deterministic report binary and fails if its stdout drifted from a
# checked-in golden. The reports are deterministic (seeded RNGs, index-
# ordered merges), so any diff is a real behavior change.
#
#   cmake -DBIN=<binary> [-DARGS="<arg> ..."] -DGOLDEN_FILE=<file>
#         -DWORK_DIR=<dir> [-DMASK_FILE=<file>] -P check_golden.cmake
#
# MASK_FILE lists host-timing values, one regex per line. In both the
# golden and the actual report, each match is replaced by its first capture
# group followed by "<time>": the group holds the text to keep and the rest
# of the match is the timing value. Every other byte is compared.

if(NOT BIN OR NOT GOLDEN_FILE OR NOT WORK_DIR)
  message(FATAL_ERROR "check_golden.cmake needs BIN, GOLDEN_FILE, WORK_DIR")
endif()

separate_arguments(ARGS UNIX_COMMAND "${ARGS}")
get_filename_component(NAME ${GOLDEN_FILE} NAME_WE)
set(ACTUAL "${WORK_DIR}/${NAME}_actual.txt")
execute_process(
  COMMAND ${BIN} ${ARGS}
  OUTPUT_FILE ${ACTUAL}
  RESULT_VARIABLE RUN_RC)
if(NOT RUN_RC EQUAL 0)
  message(FATAL_ERROR "${NAME} exited with ${RUN_RC} (validation failure?)")
endif()

set(EXPECTED ${GOLDEN_FILE})
if(MASK_FILE)
  file(STRINGS ${MASK_FILE} MASKS)
  foreach(SIDE EXPECTED ACTUAL)
    file(READ ${${SIDE}} TEXT)
    foreach(MASK IN LISTS MASKS)
      string(REGEX REPLACE "${MASK}" "\\1<time>" TEXT "${TEXT}")
    endforeach()
    set(${SIDE} "${WORK_DIR}/${NAME}_${SIDE}_masked.txt")
    file(WRITE ${${SIDE}} "${TEXT}")
  endforeach()
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${EXPECTED} ${ACTUAL}
  RESULT_VARIABLE DIFF_RC)
if(NOT DIFF_RC EQUAL 0)
  execute_process(COMMAND diff -u ${EXPECTED} ${ACTUAL})
  message(FATAL_ERROR
    "${NAME} report drifted from tests/golden/${NAME}.txt -- if the change "
    "is intended (e.g. a scheduler improvement), regenerate the golden and "
    "justify the diff in the PR")
endif()
