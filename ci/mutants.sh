#!/usr/bin/env bash
# Committed mutants: every gate proves it can fail.  Each patch in
# ci/mutants/ breaks one guard or ordering rule that the test suite claims
# to pin, and names the tests that must fail under it:
#
#   # <what the mutant breaks>
#   # tests: <ctest -R regex>
#   # target: <build target the tests live in>
#   --- a/src/...          (a unified diff, applied with patch -p1)
#
# The script copies the tree (tracked and untracked, not ignored files)
# into a scratch directory and builds it once.  For each mutant it then
# applies the patch, rebuilds the target incrementally, runs the named
# tests, and reverts the patch.  The mutant is killed when a named test
# fails.  Exit 1 when a mutant survives, when a patch no longer applies or
# reverts, when a mutant does not build, or when a regex names no test.
# Builds and test runs are bounded by `timeout` (a mutant can make a
# loop run forever).  Not tier-1.
#
# Usage: ci/mutants.sh [NAME ...]   (default: every ci/mutants/*.patch;
# NAME is a patch's file name without .patch).  The scratch directory is
# build-mutants/; each build and each test run gets 900 s.

set -euo pipefail
cd "$(dirname "$0")/.."

WORK="build-mutants"
LIMIT=900
TREE="$WORK/tree"
BUILD="$WORK/build"
echo "mutants: scratch tree $TREE, build tree $BUILD"

NAMES=("$@")
if [ ${#NAMES[@]} -eq 0 ]; then
  for PATCH in ci/mutants/*.patch; do
    NAMES+=("$(basename "$PATCH" .patch)")
  done
fi
for NAME in "${NAMES[@]}"; do
  if [ ! -f "ci/mutants/$NAME.patch" ]; then
    echo "mutants: unknown mutant '$NAME'" >&2
    exit 2
  fi
done

# Refresh the copy, writing only the files whose content differs.  A
# file a mutant once patched then keeps its later time after the revert,
# so the objects built from the mutant rebuild.
STAGE="$WORK/stage"
rm -rf "$STAGE"
mkdir -p "$STAGE" "$TREE"
git ls-files -z --cached --others --exclude-standard |
  tar --null -T - -cf - | tar -xf - -C "$STAGE"
(cd "$STAGE" && find . -type f -print0) |
  while IFS= read -r -d '' FILE; do
    if ! cmp -s "$STAGE/$FILE" "$TREE/$FILE"; then
      mkdir -p "$(dirname "$TREE/$FILE")"
      cp "$STAGE/$FILE" "$TREE/$FILE"
    fi
  done

cmake -B "$BUILD" -S "$TREE" > /dev/null
timeout "$LIMIT" cmake --build "$BUILD" -j "$(nproc)" > /dev/null

header() {  # header FIELD PATCH
  sed -n "s/^# $1: //p" "$2"
}

SURVIVED=()
BROKEN=()
START=$SECONDS
for NAME in "${NAMES[@]}"; do
  PATCH="$PWD/ci/mutants/$NAME.patch"
  REGEX="$(header tests "$PATCH")"
  TARGET="$(header target "$PATCH")"
  if [ -z "$REGEX" ] || [ -z "$TARGET" ]; then
    echo "mutants: $NAME: missing '# tests:' or '# target:' line" >&2
    BROKEN+=("$NAME")
    continue
  fi
  if ! patch -d "$TREE" -p1 --forward --dry-run --quiet < "$PATCH" \
      > /dev/null; then
    echo "mutants: $NAME: patch no longer applies" >&2
    BROKEN+=("$NAME")
    continue
  fi
  patch -d "$TREE" -p1 --forward --quiet < "$PATCH"
  VERDICT=""
  COUNT="$(ctest --test-dir "$BUILD" -N -R "$REGEX" |
    sed -n 's/^Total Tests: //p')"
  if ! timeout "$LIMIT" cmake --build "$BUILD" -j "$(nproc)" \
      --target "$TARGET" > "$WORK/$NAME.build.log" 2>&1; then
    VERDICT="does not build (see $WORK/$NAME.build.log)"
  elif [ "${COUNT:-0}" -eq 0 ]; then
    VERDICT="regex '$REGEX' names no test"
  elif timeout "$LIMIT" ctest --test-dir "$BUILD" -R "$REGEX" \
      --timeout 300 > "$WORK/$NAME.test.log" 2>&1; then
    VERDICT="SURVIVED: $COUNT test(s) matching '$REGEX' pass"
  fi
  if ! patch -d "$TREE" -p1 -R --quiet < "$PATCH"; then
    echo "mutants: $NAME: patch does not revert; delete $TREE" >&2
    exit 1
  fi
  if [ -z "$VERDICT" ]; then
    echo "mutants: $NAME killed ($COUNT test(s) matching '$REGEX')"
  elif [[ "$VERDICT" == SURVIVED* ]]; then
    echo "mutants: $NAME $VERDICT" >&2
    SURVIVED+=("$NAME")
  else
    echo "mutants: $NAME $VERDICT" >&2
    BROKEN+=("$NAME")
  fi
done

echo "mutants: ${#NAMES[@]} mutants in $((SECONDS - START)) s after the" \
  "first build: ${#SURVIVED[@]} survived, ${#BROKEN[@]} broken"
if [ ${#SURVIVED[@]} -ne 0 ] || [ ${#BROKEN[@]} -ne 0 ]; then
  exit 1
fi
echo "mutants: OK"
