#!/usr/bin/env bash
# Allocation gate for the zero-copy packet path (docs/ARCHITECTURE.md,
# "Packet memory model"): builds bench/packet_path under ASan+UBSan and
# runs it at a fixed seed.  The binary fails (non-zero exit) unless
#
#   - the steady-state hot-path exchange performs ZERO heap allocations
#     after warmup (pooled packets, recycled scheduler slots, cached
#     wire sizes), and
#   - on the plain corpus scenario, the marginal allocations per
#     delivered chunk flatline — the second window's marginal cost must
#     not exceed the first window's average — with pooling beating the
#     make_shared baseline.
#
# The probe's operator new forwards to malloc, so ASan still sees every
# allocation: the same run checks for leaks (crash wipe_volatile paths
# included) and UB.  Results land in BENCH_packet_path.json.
#
# Usage: ci/alloc.sh [build-dir]    (default: $BUILD_DIR, else
# build-sanitize)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-${BUILD_DIR:-build-sanitize}}"
echo "alloc: build tree $BUILD_DIR"

cmake -B "$BUILD_DIR" -S . -DTACTIC_SANITIZE=ON -DTACTIC_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)" --target packet_path

"$BUILD_DIR/bench/packet_path" --seed 9000 \
  --json "$BUILD_DIR/BENCH_packet_path.json"

echo "alloc: OK"
