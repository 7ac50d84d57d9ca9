# Runs the command after `--` and fails unless it exits with status CODE
# and its combined stdout and stderr match the regular expression MATCH,
# or, when GOLDEN names a file, its stdout is byte-identical to that file:
#
#   cmake -DCODE=2 -DMATCH=regex -P expect_exit.cmake -- tool args...
#   cmake -DCODE=0 -DGOLDEN=golden.txt -P expect_exit.cmake -- bench args...
set(command)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 1 ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(DEFINED GOLDEN)
  execute_process(COMMAND ${command} RESULT_VARIABLE status OUTPUT_VARIABLE output)
  file(READ ${GOLDEN} golden)
else()
  execute_process(COMMAND ${command} RESULT_VARIABLE status
                  OUTPUT_VARIABLE output ERROR_VARIABLE output)
endif()
if(NOT status EQUAL CODE)
  message(FATAL_ERROR "exit status ${status}, want ${CODE}:\n${output}")
endif()
if(DEFINED GOLDEN AND NOT output STREQUAL golden)
  message(FATAL_ERROR "stdout differs from ${GOLDEN}:\n${output}")
endif()
if(DEFINED MATCH AND NOT output MATCHES "${MATCH}")
  message(FATAL_ERROR "output does not match '${MATCH}':\n${output}")
endif()
