#!/usr/bin/env bash
# AddressSanitizer + UndefinedBehaviorSanitizer job: rebuild the
# serialization, storage, write-path and join-lifetime test binaries with
# -fsanitize=address,undefined and run each one (common_test,
# wire_roundtrip_test, rpc_test, obj_test, sortrep_test, write_path_test,
# join_test, chaos_test).  join_test tears services down mid-shuffle and
# while join continuations are queued; chaos_test kills servers mid-join.
# The binaries run directly rather than through ctest: none of them is in
# a shared label, and a direct run stops at the first failing binary.
#
# Usage:  tools/run_asan.sh [extra gtest args...]
#
# The build goes to build-asan/ (gitignored) so it never pollutes the
# regular build tree.  halt_on_error makes the first UBSan report fail the
# run instead of printing a warning and carrying on.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-asan
TESTS=(common_test wire_roundtrip_test rpc_test obj_test sortrep_test
       write_path_test join_test chaos_test)
cmake -B "${BUILD_DIR}" -S . -DPDC_SANITIZE=address-undefined >/dev/null
cmake --build "${BUILD_DIR}" -j"$(nproc)" --target "${TESTS[@]}"

export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
for t in "${TESTS[@]}"; do
  echo "== ${t}"
  "${BUILD_DIR}/tests/${t}" "$@"
done
