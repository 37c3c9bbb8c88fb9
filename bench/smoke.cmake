# Bench smoke test: run one bench binary on a short sweep, then validate
# the BENCH_*.json it wrote.  Invoked by ctest as
#   cmake -DBENCH=<binary> -DOUT=<dir> -DPYTHON=<python3>
#         -DVALIDATOR=<scripts/validate_bench_json.py> -P smoke.cmake
file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
execute_process(
  COMMAND "${BENCH}" --iters 3 --threads 2 --out "${OUT}"
  OUTPUT_FILE "${OUT}/stdout.txt"
  RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${bench_rc}")
endif()
file(GLOB results "${OUT}/BENCH_*.json")
if(NOT results)
  message(FATAL_ERROR "${BENCH} wrote no BENCH_*.json into ${OUT}")
endif()
execute_process(COMMAND "${PYTHON}" "${VALIDATOR}" ${results}
                RESULT_VARIABLE validate_rc)
if(NOT validate_rc EQUAL 0)
  message(FATAL_ERROR "schema validation failed for ${results}")
endif()
