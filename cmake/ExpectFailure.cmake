# Runs CMD (a list: the program, then its arguments) and passes only when
# the program fails, which includes dying on an uncaught exception; with
# STATUS set, only when it exits with exactly that status. On failure it
# prints the program's output, for the calling test's
# PASS_REGULAR_EXPRESSION to check; a program that exits 0, or with another
# status than STATUS, fails the script without printing it, so that output
# can never match.
#
#   add_test(NAME <name> COMMAND ${CMAKE_COMMAND}
#            "-DCMD=$<TARGET_FILE:<target>>;<arg>;..." [-DSTATUS=<n>]
#            -P ${CMAKE_SOURCE_DIR}/cmake/ExpectFailure.cmake)
execute_process(COMMAND ${CMD}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(status EQUAL 0)
  message(FATAL_ERROR "ExpectFailure: the program exited 0")
endif()
if(DEFINED STATUS AND NOT status STREQUAL STATUS)
  message(FATAL_ERROR
          "ExpectFailure: exit status ${status}, expected ${STATUS}")
endif()
message("${out}${err}")
