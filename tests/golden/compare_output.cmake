# Runs `TOOL --builtin` and fails unless its output (stdout and stderr
# together) equals the file GOLDEN byte for byte. The output lands in
# ACTUAL, so a failing run can be diffed by hand:
#
#   cmake -DTOOL=<binary> -DGOLDEN=<golden.txt> -DACTUAL=<out.txt> \
#         -P tests/golden/compare_output.cmake
#
# A deliberate change to the output is committed by copying ACTUAL over
# GOLDEN.
execute_process(COMMAND ${TOOL} --builtin OUTPUT_FILE ${ACTUAL}
                ERROR_FILE ${ACTUAL} RESULT_VARIABLE Status)
if(NOT Status EQUAL 0)
  message(FATAL_ERROR "${TOOL} --builtin exited with ${Status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${ACTUAL}
                        ${GOLDEN} RESULT_VARIABLE Differs)
if(Differs)
  message(FATAL_ERROR "${ACTUAL} differs from ${GOLDEN}")
endif()
