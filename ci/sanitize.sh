#!/usr/bin/env bash
# Builds the whole tree with ASan+UBSan and libstdc++'s container
# assertions (-D_GLIBCXX_ASSERTIONS, so an out-of-range index aborts) and
# runs the tier-1 test suite plus a short scenario-fuzz sweep under them.
# Any sanitizer report or failed assertion aborts the run
# (-fno-sanitize-recover=all) and fails the script.
# Every ci/ script configures its build tree with -DTACTIC_WERROR=ON
# (CMake caches the option), so a compiler warning fails the build too.
#
# Usage: ci/sanitize.sh [build-dir]    (default: $BUILD_DIR, else
# build-sanitize)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-${BUILD_DIR:-build-sanitize}}"
echo "sanitize: build tree $BUILD_DIR"

cmake -B "$BUILD_DIR" -S . -DTACTIC_SANITIZE=ON -DTACTIC_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# Short fuzz sweep: exercises the full simulator (crypto, Bloom filters,
# forwarder, PIT, workloads) under the sanitizers with the runtime
# invariant checker armed.
"$BUILD_DIR/fuzz_scenarios" --runs 5 --duration 6

echo "sanitize: OK"
