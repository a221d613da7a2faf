# Runs BIN and compares its standard output byte for byte with GOLDEN; on a
# mismatch the actual output is left in ACTUAL for diffing. Driven by the
# golden ctests in bench/CMakeLists.txt:
#   cmake -DBIN=<exe> -DGOLDEN=<file> -DACTUAL=<file> -P check_golden.cmake
execute_process(COMMAND ${BIN} OUTPUT_FILE ${ACTUAL} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${ACTUAL} ${GOLDEN}
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "output of ${BIN} differs from ${GOLDEN}; see ${ACTUAL}")
endif()
