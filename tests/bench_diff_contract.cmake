# Runs bench_diff on hand-written baseline/fresh pairs and checks its exit
# codes. Usage: cmake -DBENCH_DIFF=<path> -P bench_diff_contract.cmake
set(base "${CMAKE_CURRENT_BINARY_DIR}/bench_diff_contract_base.json")
set(same "${CMAKE_CURRENT_BINARY_DIR}/bench_diff_contract_same.json")
set(drift "${CMAKE_CURRENT_BINARY_DIR}/bench_diff_contract_drift.json")
file(WRITE ${base} [=[{"rows": [{"name": "k", "gflops": 10, "ref_gflops": 5}]}]=])
file(WRITE ${same} [=[{"rows": [{"name": "k", "gflops": 20, "ref_gflops": 5}]}]=])
file(WRITE ${drift} [=[{"rows": [{"name": "k", "gflops": 10, "ref_gflops": 9}]}]=])

function(expect_exit want fresh)
  execute_process(COMMAND ${BENCH_DIFF} ${ARGN} ${base} ${fresh}
                  RESULT_VARIABLE got OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT got EQUAL want)
    message(FATAL_ERROR "bench_diff ${ARGN} ${fresh}: exit ${got}, want "
                        "${want}\n${out}${err}")
  endif()
endfunction()

# "gflops" names a whole segment: ref_gflops stays compared.
expect_exit(0 ${same} --ignore gflops)
expect_exit(1 ${drift} --ignore gflops)
# Ignoring every numeric key leaves nothing compared, which fails.
expect_exit(1 ${same} --ignore gflops --ignore ref_gflops)
expect_exit(1 ${same} --ignore *gflops)
