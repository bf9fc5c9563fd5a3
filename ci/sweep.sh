#!/usr/bin/env bash
# Fixed-seed scenario-fuzz sweeps under ASan+UBSan, one row per layer.
# Every row runs fuzz_scenarios with the runtime invariant checker armed
# and runs each scenario twice, byte-comparing its digests, so a layer
# that breaks a security invariant, leaks nondeterminism or trips a
# sanitizer (-fno-sanitize-recover=all) fails the sweep.
#
#   chaos      random fault plans: lossy, bursty and corrupting links,
#              router crash-restarts, link flaps
#   flood      fault plans plus the overload-resilience layer and
#              attacker floods (docs/OVERLOAD.md)
#   batch      flood plus batched validation
#   adaptive   flood plus the gradient admission controller and face
#              quarantine
#   lifecycle  flood plus skewed clocks, skew tolerance, outage grace and
#              proactive renewal (docs/FAULTS.md)
#   scale      flood plus 10^4-10^5 junk prefixes per router FIB, each
#              scenario re-run on the linear reference FIB and compared
#
# Usage: ci/sweep.sh [NAME ...]    (default: all six rows, in this order)
# BUILD_DIR selects the sanitizer build tree (default build-sanitize);
# the cmake step is a no-op when ci/sanitize.sh already built it.  A
# failing seed reproduces with the printed --seed/--repro line.

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-sanitize}"
echo "sweep: build tree $BUILD_DIR"

# The flood-based rows share seed 9000: each layer's draws come after the
# base draws, so a seed that fails in one row but not in `flood` isolates
# that layer.
FLOOD="--runs 16 --duration 10 --seed 9000 --faults --overload"
declare -A ROWS=(
  [chaos]="--runs 16 --duration 12 --seed 7000 --faults"
  [flood]="$FLOOD"
  [batch]="$FLOOD --batch"
  [adaptive]="$FLOOD --adaptive"
  [lifecycle]="$FLOOD --skew"
  [scale]="--runs 10 --duration 8 --seed 9000 --faults --overload --bigtables"
)
ORDER=(chaos flood batch adaptive lifecycle scale)

NAMES=("$@")
[ ${#NAMES[@]} -eq 0 ] && NAMES=("${ORDER[@]}")
for NAME in "${NAMES[@]}"; do
  if [ -z "${ROWS[$NAME]+set}" ]; then
    echo "sweep: unknown sweep '$NAME' (valid: ${ORDER[*]})" >&2
    exit 2
  fi
done

cmake -B "$BUILD_DIR" -S . -DTACTIC_SANITIZE=ON -DTACTIC_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)" --target fuzz_scenarios

for NAME in "${NAMES[@]}"; do
  echo "sweep: $NAME"
  # shellcheck disable=SC2086  # the row's arguments are word-split
  "$BUILD_DIR/fuzz_scenarios" ${ROWS[$NAME]}
done

echo "sweep: OK (${NAMES[*]})"
