#!/usr/bin/env bash
# Reachability lint: lists every out-of-line function that a src/ library
# defines and that no bench, tool or example binary links, and fails
# unless that list is exactly the allowlist.
#
# The consumers are built in a separate dir at -O0 -fno-inline, one
# section per function, and linked with --gc-sections, so a binary keeps
# exactly the functions its call graph reaches: no call is inlined away,
# which would make a function called inside its own translation unit look
# unreachable. A function is reported when the `T` symbol (nm -C) that
# src/ defines appears in none of the binaries. bench_e2e counts as a
# consumer too; it is configured from its own CMake project with the same
# flags. Header templates and inline functions have no `T` symbol, so the
# scan is a floor, not a census.
#
# The allowlist (scripts/reachability_allow.txt) holds one entry a line:
# the demangled signature, then `#` and the reason it stays without a
# caller. The script fails on an unreached function missing from the
# allowlist, and on an allowlist entry that is now linked or no longer
# defined.
#
# Usage: scripts/reachability.sh     (build dir defaults to ./build-reach)
#        BUILD_DIR=out scripts/reachability.sh   (builds into out-reach)
set -euo pipefail
export LC_ALL=C  # one collation for sort and comm

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
REACH_DIR="$BUILD_DIR-reach"
ALLOWLIST=scripts/reachability_allow.txt
FLAGS=(-DCMAKE_BUILD_TYPE=None
       "-DCMAKE_CXX_FLAGS=-O0 -fno-inline -ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

cmake -B "$REACH_DIR" -S . -DBSIS_BUILD_TESTS=OFF "${FLAGS[@]}" > /dev/null
cmake --build "$REACH_DIR" -j "$(nproc)" > /dev/null
cmake -B "$REACH_DIR/bench_e2e" -S bench_e2e "${FLAGS[@]}" > /dev/null
cmake --build "$REACH_DIR/bench_e2e" -j "$(nproc)" --target bench_e2e \
    > /dev/null

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
# The global text symbols of the given objects, demangled, one a line.
text_symbols() {
    nm -C --defined-only "$@" | sed -n 's/^[0-9a-f]* T //p' | sort -u
}

mapfile -t libraries < <(find "$REACH_DIR/src" -name 'libbsis_*.a' | sort)
mapfile -t consumers < <(find "$REACH_DIR/bench" "$REACH_DIR/tools" \
    "$REACH_DIR/examples" -maxdepth 1 -type f -perm -u+x | sort)
consumers+=("$REACH_DIR/bench_e2e/bench_e2e")
if [ "${#libraries[@]}" -eq 0 ] || [ "${#consumers[@]}" -lt 2 ]; then
    echo "reachability.sh: no src libraries or consumer binaries" \
        "under $REACH_DIR" >&2
    exit 1
fi
text_symbols "${libraries[@]}" > "$WORK/defined"
for binary in "${consumers[@]}"; do
    text_symbols "$binary"
done | sort -u > "$WORK/linked"
comm -23 "$WORK/defined" "$WORK/linked" > "$WORK/unreached"

# Allowlist: skip blank and comment lines; every entry needs a reason.
: > "$WORK/allowed"
status=0
while IFS= read -r line; do
    case "$line" in '' | '#'*) continue ;; esac
    symbol=$(sed 's/[[:space:]]*#.*$//' <<< "$line")
    reason=$(sed -n 's/^[^#]*#[[:space:]]*//p' <<< "$line")
    if [ -z "$reason" ]; then
        echo "reachability.sh: allowlist entry without a reason: $symbol" >&2
        status=1
    fi
    echo "$symbol" >> "$WORK/allowed"
done < "$ALLOWLIST"
sort -u -o "$WORK/allowed" "$WORK/allowed"

echo "reachability: $(wc -l < "$WORK/defined") out-of-line src functions," \
    "${#consumers[@]} consumer binaries, $(wc -l < "$WORK/unreached")" \
    "unreached:"
sed 's/^/  /' "$WORK/unreached"

while IFS= read -r symbol; do
    echo "reachability.sh: no bench, tool or example links $symbol" \
        "(delete it, give it a caller, or allowlist it with a reason)" >&2
    status=1
done < <(comm -23 "$WORK/unreached" "$WORK/allowed")
while IFS= read -r symbol; do
    if grep -qxF -- "$symbol" "$WORK/linked"; then
        why="is now linked"
    else
        why="is no longer defined"
    fi
    echo "reachability.sh: stale allowlist entry, $why: $symbol" >&2
    status=1
done < <(comm -13 "$WORK/unreached" "$WORK/allowed")
exit "$status"
