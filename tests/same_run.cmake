# Fails unless mpr_trace traces the run mpr_run reports: both tools get the
# same single-run flags, and the JSON line mpr_trace prints to stderr must
# equal the line `mpr_run --json` prints.
#
#   cmake -DMPR_RUN=<exe> -DMPR_TRACE=<exe> -DWORK_DIR=<dir> -DFLAGS="<flags>"
#         -P same_run.cmake
separate_arguments(flags UNIX_COMMAND "${FLAGS}")
execute_process(COMMAND ${MPR_RUN} ${flags} --json
  OUTPUT_VARIABLE run_out RESULT_VARIABLE run_rc)
execute_process(COMMAND ${MPR_TRACE} ${flags} --pcap ${WORK_DIR}/same_run.pcap
  ERROR_VARIABLE trace_err RESULT_VARIABLE trace_rc)
string(STRIP "${run_out}" run_json)
string(REGEX MATCH "{[^\n]*}" trace_json "${trace_err}")
if(NOT run_rc EQUAL 0 OR NOT trace_rc EQUAL 0)
  message(FATAL_ERROR "mpr_run exited ${run_rc}, mpr_trace exited ${trace_rc}:\n${trace_err}")
endif()
if(NOT run_json MATCHES "^{\"completed\"" OR NOT run_json STREQUAL trace_json)
  message(FATAL_ERROR "mpr_trace traced a different run\n"
                      "mpr_run:   ${run_json}\nmpr_trace: ${trace_json}")
endif()
message(STATUS "same run: ${run_json}")
