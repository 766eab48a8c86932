# Runs a command with TMPDIR set to a fresh, empty directory, and fails if
# the command exits non-zero or leaves anything in that directory:
#
#   cmake -DDIR=<dir> -P leaves_no_temp_files.cmake -- <command> [args...]

set(cmd)
set(after_separator FALSE)
math(EXPR last_arg "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last_arg})
  if(after_separator)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT DIR OR NOT cmd)
  message(FATAL_ERROR "usage: cmake -DDIR=<dir> -P ${CMAKE_CURRENT_LIST_FILE} -- <command> [args...]")
endif()

file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
execute_process(COMMAND ${CMAKE_COMMAND} -E env "TMPDIR=${DIR}" ${cmd}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "command exited with ${rc}")
endif()
file(GLOB left "${DIR}/*" "${DIR}/.*")
if(left)
  message(FATAL_ERROR "left behind in ${DIR}: ${left}")
endif()
file(REMOVE_RECURSE "${DIR}")
