# ctest helper for the bench flag contract: runs EXE with the one argument
# ARG and passes only when it exits CODE and its output contains MATCH.
#   cmake -DEXE=path -DARG=--flag=value -DCODE=2 -DMATCH=text
#         -P expect_exit.cmake
execute_process(COMMAND "${EXE}" "${ARG}" RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
string(FIND "${out}" "${MATCH}" at)
if(NOT rc EQUAL CODE OR at EQUAL -1)
  message(FATAL_ERROR
          "${EXE} ${ARG}: exit ${rc}, expected ${CODE} and '${MATCH}' in:\n${out}")
endif()
