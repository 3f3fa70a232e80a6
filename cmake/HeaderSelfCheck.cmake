# Header self-sufficiency check: compile every src/**/*.hpp and
# tools/**/*.hpp standalone in its own translation unit, so a header that
# silently leans on its includer's includes fails the lint lane instead of
# a future refactor.
#
# The generated object library is EXCLUDE_FROM_ALL; the CTest target
# `header_self_sufficiency` builds it on demand (and is labeled "lint" so
# the lint preset picks it up alongside duti_lint).
function(duti_add_header_self_check)
  file(GLOB_RECURSE duti_headers RELATIVE ${CMAKE_SOURCE_DIR}/src
       CONFIGURE_DEPENDS ${CMAKE_SOURCE_DIR}/src/*.hpp)
  # Tool headers (duti_lint) are spelled repo-relative; the extra include
  # dirs below mirror the tool's own target include paths.
  file(GLOB_RECURSE duti_tool_headers RELATIVE ${CMAKE_SOURCE_DIR}
       CONFIGURE_DEPENDS ${CMAKE_SOURCE_DIR}/tools/*.hpp)
  list(APPEND duti_headers ${duti_tool_headers})
  set(check_tus "")
  foreach(hdr IN LISTS duti_headers)
    string(MAKE_C_IDENTIFIER ${hdr} hdr_id)
    set(tu ${CMAKE_BINARY_DIR}/header_check/check_${hdr_id}.cpp)
    # Only (re)write when the content would change, to keep rebuilds quiet.
    set(tu_content "#include \"${hdr}\"  // self-sufficiency check TU\n")
    if(EXISTS ${tu})
      file(READ ${tu} tu_existing)
    else()
      set(tu_existing "")
    endif()
    if(NOT tu_existing STREQUAL tu_content)
      file(WRITE ${tu} ${tu_content})
    endif()
    list(APPEND check_tus ${tu})
  endforeach()

  add_library(duti_header_check OBJECT EXCLUDE_FROM_ALL ${check_tus})
  target_include_directories(duti_header_check PRIVATE
    ${CMAKE_SOURCE_DIR}
    ${CMAKE_SOURCE_DIR}/src
    ${CMAKE_SOURCE_DIR}/tools/duti_lint)
  find_package(Threads REQUIRED)
  target_link_libraries(duti_header_check PRIVATE Threads::Threads)

  # The test runs alone (RUN_SERIAL), so it compiles on every logical core;
  # without --parallel the Makefile generator runs one compiler at a time.
  cmake_host_system_information(RESULT duti_host_cores
                                QUERY NUMBER_OF_LOGICAL_CORES)
  add_test(NAME header_self_sufficiency
    COMMAND ${CMAKE_COMMAND} --build ${CMAKE_BINARY_DIR}
            --target duti_header_check --parallel ${duti_host_cores})
  set_tests_properties(header_self_sufficiency PROPERTIES LABELS "lint"
    RUN_SERIAL TRUE)
endfunction()
