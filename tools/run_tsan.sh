#!/usr/bin/env bash
# Builds the test suite under ThreadSanitizer (-DCVREPAIR_SANITIZE=thread)
# and runs the parallel-execution tests — the determinism suite in
# tests/parallel_equivalence_test.cc, the thread-pool contract tests, the
# candidate-search window and streamed repair-context tests, and the
# streaming and variant-drift tests (a reopen plans candidates on pool
# workers). Any data race aborts the run (halt_on_error=1).
#
#   tools/run_tsan.sh [extra gtest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build-tsan -S . -DCVREPAIR_SANITIZE=thread
cmake --build build-tsan -j"$(nproc)" --target cvrepair_tests

TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}" \
  ./build-tsan/tests/cvrepair_tests \
  --gtest_filter='ParallelEquivalence*:ThreadPoolTest*:StreamingTest.*:VariantDriftTest.*Threaded*:VariantDriftTest.ThreadCountIsInvisibleUnderReopens:RepairContextTest.*:CVTolerantSearchWindowTest.*' "$@"
echo "TSan run clean."
