# ctest helper for the bench flag contract: runs EXE with the one argument
# ARG and passes only when it exits 2 and its output contains MATCH.
#   cmake -DEXE=path -DARG=--flag=value -DMATCH=text -P expect_exit.cmake
execute_process(COMMAND "${EXE}" "${ARG}" RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
string(FIND "${out}" "${MATCH}" at)
if(NOT rc EQUAL 2 OR at EQUAL -1)
  message(FATAL_ERROR
          "${EXE} ${ARG}: exit ${rc}, expected 2 and '${MATCH}' in:\n${out}")
endif()
