#!/usr/bin/env bash
# Golden gate for the paper's figures and the layer harnesses: builds
# every deterministic harness in bench/ with -DTACTIC_WERROR=ON, reruns
# it and diffs its stdout against tests/golden/figures/<harness>.txt.
# The harnesses are seed-deterministic, so any difference is a behaviour
# change: an extra RNG draw, a reordered charge, a counter that moved.
# A harness that exits non-zero (every paper harness does when the
# paper's shape fails) counts as failed as well.
#
#   paper harnesses (Tables II/IV/V, Figs. 5-8, the four ablations) run
#   at --topologies 1; the layer harnesses (batching, tag lifecycle, the
#   four resilience sweeps) run at their defaults.
#
# After the golden diff, the four paper harnesses whose defaults go
# beyond Topology 1 run once more at those defaults: Table IV, Fig. 6
# and Fig. 7 on Topologies 1-4, Fig. 5 on Topologies 1-2.  Only their
# exit status counts (their shape gates); that stdout is not diffed and
# has no golden.  The other seven default to Topology 1 alone, which the
# golden pass already runs.
#
# micro_calibration, scalability and packet_path print wall-clock
# timings and are left out.  EXPERIMENTS.md quotes its numbers from the
# golden files.  Each harness runs inside $BUILD_DIR/figures, so the
# BENCH_*.json files some of them write land there, and its stdout is
# kept there as <harness>.txt.  Regenerate the golden files ONLY for an
# intentional behaviour change, with
#   ci/figures.sh; cp build-figures/figures/*.txt tests/golden/figures/
# and say so in the commit message.
#
# Usage: ci/figures.sh [build-dir]    (default: $BUILD_DIR, else
# build-figures)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-${BUILD_DIR:-build-figures}}"
echo "figures: build tree $BUILD_DIR"
GOLDEN_DIR="$PWD/tests/golden/figures"

PAPER=(table2_comparison table4_delivery_ratio table5_bf_resets
       fig5_latency_bf_size fig6_tag_rates fig7_router_operations
       fig8_bf_reset_threshold ablation_access_path ablation_flag_cooperation
       ablation_precheck ablation_revocation)
LAYERS=(batching_throughput tag_lifecycle_resilience
        resilience_attacker_flood resilience_edge_chaos resilience_flood_ramp
        resilience_provider_outage)

cmake -B "$BUILD_DIR" -S . -DTACTIC_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${PAPER[@]}" "${LAYERS[@]}"

mkdir -p "$BUILD_DIR/figures"
cd "$BUILD_DIR/figures"

FAILED=()
check() {
  local name="$1"
  shift
  echo "figures: $name${*:+ $*}"
  local ok=1
  "../bench/$name" "$@" > "$name.txt" || {
    echo "figures: $name exited with status $?" >&2
    ok=0
  }
  diff -u "$GOLDEN_DIR/$name.txt" "$name.txt" || ok=0
  [ "$ok" = 1 ] || FAILED+=("$name")
}

for NAME in "${PAPER[@]}"; do check "$NAME" --topologies 1; done
for NAME in "${LAYERS[@]}"; do check "$NAME"; done

MULTI_TOPOLOGY=(table4_delivery_ratio fig5_latency_bf_size fig6_tag_rates
                fig7_router_operations)
for NAME in "${MULTI_TOPOLOGY[@]}"; do
  echo "figures: $NAME (defaults, shape gate only)"
  "../bench/$NAME" > "$NAME.defaults.txt" || {
    echo "figures: $NAME exited with status $? at its defaults" >&2
    FAILED+=("$NAME@defaults")
  }
done

if [ ${#FAILED[@]} -gt 0 ]; then
  echo "figures: FAILED (non-zero exit or stdout mismatch against" \
       "$GOLDEN_DIR): ${FAILED[*]}" >&2
  exit 1
fi
echo "figures: OK ($((${#PAPER[@]} + ${#LAYERS[@]})) harnesses byte-identical," \
     "${#MULTI_TOPOLOGY[@]} shape-checked at their defaults)"
