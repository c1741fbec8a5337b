# Smoke-runs one bench binary at drastically shrunk workload sizes,
# validates the BENCH_<name>.json it emits against the rdmasem-bench-v1
# schema and checks its sha256 against the digest pinned in DIGESTS
# (bench/smoke_digests.json). Registered as one ctest entry per bench
# (label `bench_smoke`) by bench/CMakeLists.txt:
#
#   cmake -DBENCH=<binary> -DOUT=<dir> -DCHECK=<check_bench_json.py>
#         -DDIGESTS=<smoke_digests.json> -P scripts/bench_smoke.cmake
#
# The env knobs below override every RDMASEM_* workload size (README) so
# the whole battery stays in CI-smoke territory; the figures these runs
# produce are NOT paper-comparable. They prove each binary rejects an
# unknown argument without writing a report, runs to completion, reports
# well-formed structured output, and produces the same bytes as when its
# digest was pinned. Tracing and profiling add
# report sections, and the fig06 region knob changes the sweep, so they
# are unset for the run.

foreach(var BENCH OUT CHECK DIGESTS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR
            "usage: cmake -DBENCH=... -DOUT=... -DCHECK=... -DDIGESTS=... "
            "-P bench_smoke.cmake")
  endif()
endforeach()

get_filename_component(name "${BENCH}" NAME)
file(MAKE_DIRECTORY "${OUT}")
file(REMOVE "${OUT}/BENCH_${name}.json")

# The binaries take no arguments: an unknown one must fail before any
# point runs, and must not leave a (partial) report behind.
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env "RDMASEM_BENCH_OUT=${OUT}"
          "${BENCH}" --no-such-argument
  RESULT_VARIABLE bad_rc OUTPUT_QUIET ERROR_QUIET)
if(bad_rc EQUAL 0)
  message(FATAL_ERROR "${name} accepted an unknown argument")
endif()
if(EXISTS "${OUT}/BENCH_${name}.json")
  message(FATAL_ERROR "${name} wrote a report despite a bad argument")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env
          --unset=RDMASEM_TRACE --unset=RDMASEM_PROF
          --unset=RDMASEM_FIG6_REGION
          "RDMASEM_BENCH_OUT=${OUT}"
          RDMASEM_MICRO_OPS=300
          RDMASEM_HT_KEYS=512
          RDMASEM_HT_OPS=400
          RDMASEM_JOIN_TUPLES=800
          RDMASEM_JOIN_SCALE_SHIFT=9
          RDMASEM_SHUFFLE_ENTRIES=600
          RDMASEM_DLOG_RECORDS=200
          RDMASEM_TENANT_OPS=2000
          RDMASEM_SYNC_OPS=48
          RDMASEM_SYNC_KEYS=8
          RDMASEM_SELFBENCH_EVENTS=60000
          RDMASEM_SELFBENCH_ACTORS=512
          RDMASEM_SELFBENCH_TASKS=800
          RDMASEM_SELFBENCH_HOPS=8
          "${BENCH}"
  RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "${name} exited with ${run_rc}")
endif()

if(NOT EXISTS "${OUT}/BENCH_${name}.json")
  message(FATAL_ERROR "${name} did not write ${OUT}/BENCH_${name}.json")
endif()

find_program(PYTHON3 NAMES python3 python REQUIRED)
execute_process(
  COMMAND "${PYTHON3}" "${CHECK}" --digest "${DIGESTS}"
          "${OUT}/BENCH_${name}.json"
  RESULT_VARIABLE check_rc)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "check_bench_json.py rejected BENCH_${name}.json")
endif()
