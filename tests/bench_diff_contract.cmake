# Runs bench_diff on hand-written baseline/fresh pairs and checks its exit
# codes. Usage: cmake -DBENCH_DIFF=<path> -P bench_diff_contract.cmake
set(base "${CMAKE_CURRENT_BINARY_DIR}/bench_diff_contract_base.json")
set(same "${CMAKE_CURRENT_BINARY_DIR}/bench_diff_contract_same.json")
set(drift "${CMAKE_CURRENT_BINARY_DIR}/bench_diff_contract_drift.json")
file(WRITE ${base} [=[{"rows": [{"name": "k", "gflops": 10, "ref_gflops": 5}]}]=])
file(WRITE ${same} [=[{"rows": [{"name": "k", "gflops": 20, "ref_gflops": 5}]}]=])
file(WRITE ${drift} [=[{"rows": [{"name": "k", "gflops": 10, "ref_gflops": 9}]}]=])

set(rows_full "${CMAKE_CURRENT_BINARY_DIR}/bench_diff_contract_rows_full.json")
set(rows_gap "${CMAKE_CURRENT_BINARY_DIR}/bench_diff_contract_rows_gap.json")
file(WRITE ${rows_full} [=[{"rows": [{"name": "a", "flops": 1, "gflops": 2},
                                     {"name": "b", "flops": 4, "gflops": 3}]}]=])
file(WRITE ${rows_gap} [=[{"rows": [{"name": "a", "flops": 1, "gflops": 2},
                                    {"name": "b", "gflops": 3}]}]=])

function(expect_exit_from want baseline fresh)
  execute_process(COMMAND ${BENCH_DIFF} ${ARGN} ${baseline} ${fresh}
                  RESULT_VARIABLE got OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT got EQUAL want)
    message(FATAL_ERROR "bench_diff ${ARGN} ${baseline} ${fresh}: exit "
                        "${got}, want ${want}\n${out}${err}")
  endif()
endfunction()

function(expect_exit want fresh)
  expect_exit_from(${want} ${base} ${fresh} ${ARGN})
endfunction()

# "gflops" names a whole segment: ref_gflops stays compared.
expect_exit(0 ${same} --ignore gflops)
expect_exit(1 ${drift} --ignore gflops)
# Ignoring every numeric key leaves nothing compared, which fails.
expect_exit(1 ${same} --ignore gflops --ignore ref_gflops)
expect_exit(1 ${same} --ignore *gflops)
# A baseline row lacking a gated field its sibling has fails, even though
# every key it does have matches; ignoring that field lifts the failure.
expect_exit_from(0 ${rows_full} ${rows_full} --ignore gflops)
expect_exit_from(1 ${rows_gap} ${rows_full} --ignore gflops)
expect_exit_from(1 ${rows_gap} ${rows_gap})
expect_exit_from(0 ${rows_gap} ${rows_gap} --ignore flops)
