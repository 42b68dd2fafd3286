#!/usr/bin/env bash
# Builds the test suite under ThreadSanitizer (-DCVREPAIR_SANITIZE=thread)
# and runs the tests that reach the engine's two parallel loops, both in
# Algorithm 1: the fact scans over the distinct constraints and the
# candidate search's planning window. That is the determinism suite in
# tests/parallel_equivalence_test.cc (including the check that nothing
# else starts a parallel loop), the thread-pool contract tests, the
# candidate-search window and streamed repair-context tests, the
# streaming and variant-drift tests (a reopen plans candidates on pool
# workers), the delete-strategy matrices (tuple covers are planned on
# pool workers), and the serve tests (client threads against a session's
# background worker). Any data race aborts the run (halt_on_error=1).
#
#   tools/run_tsan.sh [extra gtest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build-tsan -S . -DCVREPAIR_SANITIZE=thread
cmake --build build-tsan -j"$(nproc)" --target cvrepair_tests

TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}" \
  ./build-tsan/tests/cvrepair_tests \
  --gtest_filter='ParallelEquivalence*:ThreadPoolTest*:StreamingTest.*:VariantDriftTest.*Threaded*:VariantDriftTest.ThreadCountIsInvisibleUnderReopens:RepairContextTest.*:CVTolerantSearchWindowTest.*:ServeTest.*:SubsetRepairTest.DeleteMatrix*' "$@"
echo "TSan run clean."
