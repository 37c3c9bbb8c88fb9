#!/usr/bin/env bash
# Pre-merge gate for ulsocks (see DESIGN.md "Correctness tooling"):
#   1. Debug build with AddressSanitizer + UndefinedBehaviorSanitizer,
#      full ctest suite (protocol invariant checkers are always on).  The
#      suite includes bench.smoke.<name> for every bench binary: a short
#      run whose BENCH_*.json must pass scripts/validate_bench_json.py.
#   2. clang-tidy over src/ with the repo's .clang-tidy profile.
#   3. ulsan, the repo-specific static-analysis suite (python3 -m ulsan
#      src): determinism, shard affinity, coroutine lifetime, layering,
#      wire hygiene.  Fails on new findings, unused suppressions or a
#      stale baseline (DESIGN.md §12).
#   4. ThreadSanitizer build running the bench harness's run_points()
#      pool tests (the only code that runs simulations on several
#      threads).
#   5. Benchmark simulated outputs: perfbench/run.py runs every workload
#      once, traced, at seed 7 and fails on any mismatch against
#      perfbench/reference.json (digests, event and probe counts,
#      simulated metrics).  A correctness check, not a timing gate.
#   6. Host-perf gate: a Release build runs bench/hostperf and
#      scripts/check_hostperf.py fails the gate if events/sec dropped
#      more than 25% below bench/baselines/BENCH_hostperf.json.
#
# Usage: scripts/check.sh [build-dir] [--require-tools] [--no-hostperf]
#   build-dir        build tree to use (default: build-check)
#   --require-tools  a missing optional tool (clang-tidy) is a hard
#                    failure instead of a skip-with-warning.  Defaults ON
#                    when $CI is set, so CI never silently loses a stage.
#   --no-hostperf    skip stage 6 (host-perf is meaningless on shared or
#                    throttled runners; CI uses this).
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="build-check"
REQUIRE_TOOLS="${CI:+1}"
RUN_HOSTPERF=1
for arg in "$@"; do
  case "$arg" in
    --require-tools) REQUIRE_TOOLS=1 ;;
    --no-require-tools) REQUIRE_TOOLS= ;;
    --no-hostperf) RUN_HOSTPERF= ;;
    --*) echo "check.sh: unknown flag '$arg'" >&2; exit 2 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done
JOBS="$(nproc 2>/dev/null || echo 4)"
TOTAL=6

echo "==> [1/$TOTAL] Debug + ASan/UBSan build and test"
cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DULSOCKS_SANITIZE=address,undefined
cmake --build "$BUILD_DIR" -j "$JOBS"
# halt_on_error makes any sanitizer report fail the test that produced it.
ASAN_OPTIONS=halt_on_error=1 UBSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

if command -v clang-tidy >/dev/null 2>&1; then
  TIDY_VERSION="$(clang-tidy --version | sed -n 's/.*version */version /p' | head -n1)"
  echo "==> [2/$TOTAL] clang-tidy (${TIDY_VERSION:-version unknown})"
  mapfile -t SOURCES < <(find src -name '*.cpp' | sort)
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -p "$BUILD_DIR" -quiet "${SOURCES[@]}"
  else
    clang-tidy -p "$BUILD_DIR" --quiet "${SOURCES[@]}"
  fi
elif [ -n "$REQUIRE_TOOLS" ]; then
  echo "==> [2/$TOTAL] clang-tidy"
  echo "ERROR: clang-tidy not installed and --require-tools is set" >&2
  exit 1
else
  echo "==> [2/$TOTAL] clang-tidy"
  echo "WARNING: clang-tidy not installed; skipping static analysis" >&2
  echo "         (pass --require-tools to make this a failure)" >&2
fi

echo "==> [3/$TOTAL] ulsan static-analysis suite"
PYTHONPATH="$PWD/scripts${PYTHONPATH:+:$PYTHONPATH}" python3 -m ulsan src

echo "==> [4/$TOTAL] ThreadSanitizer: bench run_points() pool"
# Sharded groups step their engines serially, so the only code that runs
# simulations on several threads is bench::run_points(), which fans whole
# runs over a worker pool.  Concurrent runs share the process-wide pooling
# switches, the thread_local spill freelists and the host_perf atomics;
# the RunPoints.* and BenchResults.* tests drive exactly that.  TSan
# excludes the other sanitizers, so this is its own build tree.
TSAN_DIR="$BUILD_DIR-tsan"
cmake -B "$TSAN_DIR" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DULSOCKS_SANITIZE=thread
cmake --build "$TSAN_DIR" -j "$JOBS" --target harness_test
TSAN_OPTIONS=halt_on_error=1 \
  "$TSAN_DIR/tests/harness_test" --gtest_filter='RunPoints.*:BenchResults.*'

echo "==> [5/$TOTAL] benchmark simulated outputs vs perfbench/reference.json"
# run.py exits 1 on any reference mismatch; --seconds 1 keeps it short.
for workload in stream_64k c10k_ring web16_sharded; do
  python3 perfbench/run.py --workload "$workload" --seed 7 --seconds 1 \
    --trace 1 >/dev/null
done

if [ -n "$RUN_HOSTPERF" ]; then
  echo "==> [6/$TOTAL] host-perf gate (Release build, full hostperf bench)"
  # Sanitizer builds measure the sanitizer, not the simulator: the host-perf
  # numbers only mean something at -O2/-O3 without instrumentation.
  PERF_DIR="$BUILD_DIR-release"
  cmake -B "$PERF_DIR" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$PERF_DIR" -j "$JOBS" --target hostperf
  HOSTPERF_DIR="$PERF_DIR/bench-hostperf"
  mkdir -p "$HOSTPERF_DIR"
  "$PERF_DIR/bench/hostperf" --out "$HOSTPERF_DIR"
  python3 scripts/validate_bench_json.py "$HOSTPERF_DIR/BENCH_hostperf.json"
  python3 scripts/check_hostperf.py "$HOSTPERF_DIR/BENCH_hostperf.json"
else
  echo "==> [6/$TOTAL] host-perf gate skipped (--no-hostperf)"
fi

echo "==> all checks passed"
