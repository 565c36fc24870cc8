# Runs the status_discard_fails_to_compile ctest:
#
#   cmake -DBUILD_DIR=<build tree> -DCASES=<case,...> \
#         -P status_discard_check.cmake
#
# The status_discard_<case> target of every listed case must fail to
# build on the [[nodiscard]] diagnostic, and status_discard_control must
# build.
string(REPLACE "," ";" CASES "${CASES}")
foreach(case ${CASES} control)
  execute_process(
    COMMAND ${CMAKE_COMMAND} --build ${BUILD_DIR}
            --target status_discard_${case}
    RESULT_VARIABLE status OUTPUT_VARIABLE output ERROR_VARIABLE output)
  if(case STREQUAL "control")
    if(NOT status EQUAL 0)
      message(FATAL_ERROR "status_discard_control failed to build:\n${output}")
    endif()
  elseif(status EQUAL 0 OR NOT output MATCHES "nodiscard[^\n]*unused-result")
    message(FATAL_ERROR
            "status_discard_${case} did not fail on the nodiscard "
            "diagnostic (exit ${status}):\n${output}")
  endif()
endforeach()
