#!/usr/bin/env bash
# ThreadSanitizer job: rebuild the concurrency-heavy test binaries with
# -fsanitize=thread and run every ctest entry carrying the `tsan` label
# (rpc_test, chaos_test, concurrency_test, querycheck_test, obs_test,
# pipeline_test, kernels_test, overload_test, write_path_test, join_test,
# metacheck_test).  Every tsan-labeled binary must be in the --target list:
# gtest_discover_tests lists a binary's tests when it is built, so
# `ctest -L tsan` silently runs none of an unbuilt binary's tests.
#
# Usage:  tools/run_tsan.sh [extra ctest args...]
#
# The build goes to build-tsan/ (gitignored) so it never pollutes the
# regular build tree.  TSan runs 5-15x slower than native; the tsan-labeled
# tests get a 480 s ctest timeout to absorb that.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-tsan
cmake -B "${BUILD_DIR}" -S . -DPDC_SANITIZE=thread >/dev/null
cmake --build "${BUILD_DIR}" -j"$(nproc)" \
      --target rpc_test chaos_test concurrency_test querycheck_test obs_test \
               pipeline_test kernels_test overload_test write_path_test \
               join_test metacheck_test

# halt_on_error keeps the first race report at the top of the log instead
# of burying it under cascading follow-ups.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
ctest --test-dir "${BUILD_DIR}" -L tsan --output-on-failure "$@"
