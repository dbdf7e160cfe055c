#!/usr/bin/env bash
# Checks that the wide copy of the lockstep lane drivers defines only
# functions named after its copy.
#
# Usage: scripts/isa_symbols.sh <object>...   (NM overrides the nm binary)
#
# bsis_core compiles core/lockstep_run.cpp twice: at the baseline ISA and at
# x86-64-v4 (util/isa.hpp). The linker merges template instantiations and
# inline functions by name, so a global or weak function the wide object
# defines under a name a baseline unit may also emit can reach baseline
# callers (an illegal instruction on a CPU without AVX-512), or hand the
# wide driver the baseline body. Every global (T) and weak (W) text symbol
# of the wide object must therefore name the wide namespace `isa_v4`.
# Local symbols (t, and GCC's .isra, .part and .constprop clones) are
# never merged and pass. Nothing is allowlisted.
#
# Exits 1 naming each offending symbol, 77 (skipped) when given no object
# because the wide copy is not built.
set -euo pipefail

NM=${NM:-nm}
if [ "$#" -eq 0 ]; then
    echo "isa_symbols: the x86-64-v4 copy of the lane drivers is not built;" \
        "skipped"
    exit 77
fi

symbols=$("$NM" -C --defined-only "$@" |
    awk '$2 == "T" || $2 == "W" { $1 = ""; $2 = ""; sub(/^  /, ""); print }')
if ! grep -q 'isa_v4::run_lockstep<' <<< "$symbols"; then
    echo "isa_symbols: $* defines no isa_v4::run_lockstep; not the wide" \
        "lockstep object?" >&2
    exit 1
fi
shared=$(grep -v 'isa_v4::' <<< "$symbols" |
    grep -Ev '\.(isra|part|constprop)\.[0-9]+' | sort -u || true)
if [ -n "$shared" ]; then
    echo "isa_symbols: the wide object defines functions outside the" \
        "isa_v4 namespace, which the linker may merge with baseline copies:" >&2
    echo "$shared" >&2
    exit 1
fi
echo "isa_symbols: $(wc -l <<< "$symbols") global and weak functions," \
    "all in isa_v4"
