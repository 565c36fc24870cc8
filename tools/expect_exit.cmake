# Runs a command and checks both its exit status and its output, which
# PASS_REGULAR_EXPRESSION alone cannot (it ignores the exit status):
#
#   cmake -DEXIT=<status> -DOUTPUT=<regex> -P expect_exit.cmake -- <command...>
#
# stdout and stderr are matched together.
math(EXPR last "${CMAKE_ARGC} - 1")
set(command "")
set(in_command FALSE)
foreach(i RANGE ${last})
  if(in_command)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(in_command TRUE)
  endif()
endforeach()
execute_process(COMMAND ${command} RESULT_VARIABLE status
                OUTPUT_VARIABLE output ERROR_VARIABLE output)
if(NOT status STREQUAL "${EXIT}" OR NOT output MATCHES "${OUTPUT}")
  message(FATAL_ERROR "expected exit ${EXIT} and output matching "
                      "'${OUTPUT}', got exit ${status}:\n${output}")
endif()
