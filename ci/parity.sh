#!/usr/bin/env bash
# Behaviour-preservation gate for the validation pipeline: builds the
# tree with ASan+UBSan, runs the fixed-seed fuzz corpus (plain, faults,
# faults+overload — 16 seeds each), and diffs the metrics-fingerprint
# digests against the checked-in golden list.  Any behavioural drift in
# router policy code — an extra RNG draw, a reordered charge, a dropped
# counter — fails the diff; a mismatching seed reproduces with
# `fuzz_scenarios --seed N --repro [--faults] [--overload]`.
#
# The goldens were captured from the pre-pipeline monolith, except one
# seed-9014 fingerprint line, regenerated on purpose when the client
# samples began to fold at harvest in (time, client, position) order (a
# latency sum moved by one ulp).  tests/pipeline_test.cpp checks both
# golden files in tier-1 too.  Regenerate them ONLY for an intentional
# behaviour change, with
#   build/fingerprint_corpus > tests/golden/fingerprints.txt
#   build/fingerprint_corpus --verdicts > tests/golden/verdicts.txt
# and say so in the commit message.
#
# The corpus runs with the batching layer OFF (the generator never
# samples it without --batch), so this diff is also the bit-identity
# check for a disabled batch layer: any batch code that leaks into the
# unbatched path — a stray RNG draw, a rounded charge, a counter that
# prints when it shouldn't — fails here.  The verdict corpus pins the
# order-insensitive per-user verdict multisets the batching equivalence
# harness (tests/batching_test.cpp) compares.
#
# Usage: ci/parity.sh [build-dir]    (default: build-sanitize)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-sanitize}"
GOLDEN="tests/golden/fingerprints.txt"
VERDICT_GOLDEN="tests/golden/verdicts.txt"

cmake -B "$BUILD_DIR" -S . -DTACTIC_SANITIZE=ON -DTACTIC_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)" --target fingerprint_corpus

# Both pooling modes must match the same goldens: packet-slab recycling
# (the default) is a pure allocation strategy, so turning it off with
# --no-pool may not move a single byte of any digest.
for POOL_FLAG in "" "--no-pool"; do
  SUFFIX="${POOL_FLAG:+.nopool}"

  # shellcheck disable=SC2086  # POOL_FLAG is intentionally word-split
  "$BUILD_DIR/fingerprint_corpus" $POOL_FLAG \
    > "$BUILD_DIR/fingerprints$SUFFIX.txt"

  if ! diff -u "$GOLDEN" "$BUILD_DIR/fingerprints$SUFFIX.txt"; then
    echo "parity: FINGERPRINT MISMATCH against $GOLDEN" \
      "(pooling ${POOL_FLAG:-on})" >&2
    exit 1
  fi

  # shellcheck disable=SC2086
  "$BUILD_DIR/fingerprint_corpus" --verdicts $POOL_FLAG \
    > "$BUILD_DIR/verdicts$SUFFIX.txt"

  if ! diff -u "$VERDICT_GOLDEN" "$BUILD_DIR/verdicts$SUFFIX.txt"; then
    echo "parity: VERDICT MISMATCH against $VERDICT_GOLDEN" \
      "(pooling ${POOL_FLAG:-on})" >&2
    exit 1
  fi
done

echo "parity: OK ($(wc -l < "$GOLDEN") fingerprints and" \
  "$(wc -l < "$VERDICT_GOLDEN") verdict multisets bit-identical," \
  "pooling on and off)"
