# Runs PROGRAM, writes its stdout to OUTPUT and fails unless the program
# exits 0 and OUTPUT equals EXPECTED byte for byte.
#
#   cmake -DPROGRAM=<exe> -DEXPECTED=<file> -DOUTPUT=<file> -P run_and_compare.cmake
foreach(var PROGRAM EXPECTED OUTPUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_and_compare.cmake: ${var} is not set")
  endif()
endforeach()

execute_process(COMMAND "${PROGRAM}"
  OUTPUT_FILE "${OUTPUT}"
  RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${exit_code}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
  "${OUTPUT}" "${EXPECTED}"
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "stdout of ${PROGRAM} (${OUTPUT}) differs from ${EXPECTED}")
endif()
