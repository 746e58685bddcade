#!/usr/bin/env bash
# Builds the tree with ThreadSanitizer (-DTRMMA_TSAN=ON) in a dedicated
# build directory and runs the test suite under it. Any data-race report
# fails the run.
#
# Usage: scripts/run_tsan_tests.sh [ctest args...]
#   With no args, runs the full suite except the long bench smokes (the
#   same exclusion as the ASan/UBSan job): every serve worker shares one
#   model and routing context, so any test may touch shared state. Pass
#   your own ctest filter to narrow the selection,
#   e.g. scripts/run_tsan_tests.sh -R '^(Serve|RoutingScratch)'
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${TRMMA_TSAN_BUILD_DIR:-${repo_root}/build-tsan}"
jobs="$(nproc 2>/dev/null || echo 4)"

cmake -S "${repo_root}" -B "${build_dir}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DTRMMA_TSAN=ON
cmake --build "${build_dir}" -j "${jobs}"

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"

if [ "$#" -eq 0 ]; then
  set -- -E 'bench_.*_smoke'
fi

ctest --test-dir "${build_dir}" -j "${jobs}" --output-on-failure "$@"
