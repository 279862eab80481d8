# The claims_ledger test: runs `renamectl claims` twice and fails unless both
# runs exit 0 and print byte-identical output.
#
#   cmake -DRENAMECTL=build/renamectl -P cmake/ClaimsLedger.cmake
foreach(run 1 2)
  execute_process(COMMAND ${RENAMECTL} claims
                  OUTPUT_VARIABLE out${run} ERROR_VARIABLE err${run}
                  RESULT_VARIABLE rc${run})
  if(NOT rc${run} EQUAL 0)
    message("${out${run}}${err${run}}")
    message(FATAL_ERROR "renamectl claims run ${run} exited ${rc${run}}")
  endif()
endforeach()
message("${out1}")
if(NOT out1 STREQUAL out2)
  message(FATAL_ERROR "renamectl claims printed different output on two runs")
endif()
