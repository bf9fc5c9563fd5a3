#!/usr/bin/env bash
# Behaviour-preservation gate for the validation pipeline: builds the
# tree with ASan+UBSan, runs the fixed-seed fuzz corpus (plain, faults,
# faults+overload, layers — 16 seeds each), and diffs the
# metrics-fingerprint digests against the checked-in golden list.  Any
# behavioural drift in router policy code — an extra RNG draw, a
# reordered charge, a dropped counter — fails the diff; a mismatching
# seed reproduces with
#   fuzz_scenarios --seed N --repro --duration 6 [--faults] [--overload]
# adding `--policy tactic --batch --adaptive --skew` for `layers`.  The
# fuzzer's `metrics=` digest differs from the corpus digest even then:
# InvariantChecker::finalize drains the run before the fuzzer harvests.
#
# The goldens were captured from the pre-pipeline monolith, except the
# `layers` lines, captured when that mode was added, and one seed-9014
# fingerprint line.  That line was regenerated on purpose when the client
# samples began to fold at harvest in (time, client, position) order (a
# latency sum moved by one ulp), and again when they began to add
# straight into the series in dispatch order, which moved it back and
# moved `layers 9007` by one ulp.  tests/pipeline_test.cpp checks both
# golden files in tier-1 too.  Regenerate them ONLY for an intentional
# behaviour change, with
#   build/fingerprint_corpus > tests/golden/fingerprints.txt
#   build/fingerprint_corpus --verdicts > tests/golden/verdicts.txt
# and say so in the commit message.
#
# The plain, faults and faults+overload modes run with the batching
# layer OFF (the generator never samples it without --batch), so their
# lines are also the bit-identity check for a disabled batch layer: any
# batch code that leaks into the unbatched path — a stray RNG draw, a
# rounded charge, a counter that prints when it shouldn't — fails here.
# The layers mode pins the batch, adaptive and tag-lifecycle layers
# themselves.  The verdict corpus pins the order-insensitive per-user
# verdict multisets the batching equivalence harness
# (tests/batching_test.cpp) compares.
#
# Usage: ci/parity.sh [build-dir]    (default: $BUILD_DIR, else
# build-sanitize)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-${BUILD_DIR:-build-sanitize}}"
echo "parity: build tree $BUILD_DIR"
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
