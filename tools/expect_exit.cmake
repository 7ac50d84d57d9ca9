# Runs the command after `--` and fails unless it exits with status CODE
# and its combined stdout and stderr match the regular expression MATCH:
#
#   cmake -DCODE=2 -DMATCH=regex -P expect_exit.cmake -- tool args...
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
execute_process(COMMAND ${command} RESULT_VARIABLE status
                OUTPUT_VARIABLE output ERROR_VARIABLE output)
if(NOT status EQUAL CODE)
  message(FATAL_ERROR "exit status ${status}, want ${CODE}:\n${output}")
endif()
if(NOT output MATCHES "${MATCH}")
  message(FATAL_ERROR "output does not match '${MATCH}':\n${output}")
endif()
