#!/usr/bin/env bash
# Checks that the wide copy (the lockstep lane drivers and the width-1
# path's row-block SpMV) runs its SpMV sweeps at the vector width.
#
# Usage: scripts/isa_codegen.sh <object>...   (OBJDUMP and NM override the
#                                              binutils used)
#
# The slab sweeps are spmv_lanes, spmv_lanes_dot and spmv_lanes_dot4
# (matrix/ell_slab.hpp) at W = 4, 8 and 16: every (row, slot) step one
# vector load of values, one of x, a multiply and an add into a register
# accumulator. Each is found wherever it is compiled: its own function, or
# the phase-span wrapper of the lane group member that inlines it
# (LaneGroup<W, ...>::spmv, ::spmv_dot, ::spmv_dot4). Its slot loops are
# the innermost loops there that multiply (vmulpd). A slot loop fails,
# naming the function, when it
#   - builds x from element loads (vmovhpd, vinsertf128, vpextrq, vpinsrq):
#     the compiler vectorized along the slots instead of the lanes; or
#   - adds into a stack operand: the row sum is not in a register.
#
# The row-block kernels are spmv_row_blocks and pack_spmv_row_blocks
# (matrix/row_blocks_v4.cpp): every (block, slot) step one vgatherdpd of x,
# a multiply and an add into a register. They are found in any function
# named after them or their row_block(s)<Pack, ...> helpers; their step
# loops are the innermost loops that multiply (vmulpd or vmulsd). A step
# loop fails, naming the function, when it has no vgatherdpd, loads x
# element by element (vmovsd, vmovhpd, vinsertf128, vpinsrq), multiplies
# one element at a time (vmulsd) or adds into a stack operand.
#
# A sweep or kernel with no slot or step loop in any function fails too.
#
# Exits 1 on a failure, 77 (skipped) when given no object because the wide
# copy is not built, or when the object is sanitizer-instrumented (its code
# is not what the release build runs).
set -euo pipefail

OBJDUMP=${OBJDUMP:-objdump}
NM=${NM:-nm}
if [ "$#" -eq 0 ]; then
    echo "isa_codegen: the x86-64-v4 copy of the lane drivers is not built;" \
        "skipped"
    exit 77
fi
if "$NM" -u "$@" | grep -Eq '__(asan|tsan)_'; then
    echo "isa_codegen: $* is sanitizer-instrumented; skipped"
    exit 77
fi

"$OBJDUMP" -d --no-show-raw-insn -C "$@" | awk '
function hex(s,    i, v) {
    v = 0
    for (i = 1; i <= length(s); ++i) {
        v = v * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
    }
    return v
}
function sweep_of(name,    m, w) {
    # "spmv_lanes_dot4<8, double>" or "LaneGroup<8, true>::spmv_dot4(".
    # The row-block kernels: "pack_spmv_row_blocks(", "row_block<true, ".
    rows = 0
    if (name ~ /isa_v4::pack_spmv_row_blocks\(/ ||
        name ~ /isa_v4::.*row_blocks?<true, (true|false)>/) {
        rows = 1
        return "pack_spmv_row_blocks"
    } else if (name ~ /isa_v4::spmv_row_blocks\(/ ||
               name ~ /isa_v4::.*row_blocks?<false, (true|false)>/) {
        rows = 1
        return "spmv_row_blocks"
    } else if (match(name, /isa_v4::spmv_lanes(_dot4|_dot)?<(4|8|16), double>/)) {
        m = substr(name, RSTART, RLENGTH)
        sub(/^isa_v4::spmv_lanes/, "spmv", m)
    } else if (match(name, /LaneGroup<(4|8|16), (true|false)>::spmv(_dot4|_dot)?\(/)) {
        m = substr(name, RSTART, RLENGTH)
        w = m
        sub(/^LaneGroup</, "", w)
        sub(/,.*/, "", w)
        sub(/^.*>::/, "", m)
        sub(/\($/, "", m)
        m = m "<" w ", double>"
    } else {
        return ""
    }
    return m
}
function check(    i, j, inner, bad, why) {
    if (sweep == "") {
        return
    }
    for (i = 1; i <= nloops; ++i) {
        inner = 1
        for (j = 1; j <= nloops; ++j) {
            if (j != i && lo[j] >= lo[i] && hi[j] <= hi[i] &&
                (lo[j] != lo[i] || hi[j] != hi[i])) {
                inner = 0
            }
        }
        if (!inner) {
            continue
        }
        bad = 0
        mul = 0
        gather = 0
        why = ""
        for (j = 1; j <= n; ++j) {
            if (addr[j] < lo[i] || addr[j] > hi[i]) {
                continue
            }
            if (op[j] == "vmulpd" || (rows && op[j] == "vmulsd")) {
                mul = 1
            }
            if (op[j] == "vgatherdpd") {
                gather = 1
            }
            if (op[j] ~ /^(vmovhpd|vinsertf128|vpextrq|vpinsrq)$/ ||
                (rows && op[j] ~ /^(vmovsd|vmulsd)$/)) {
                why = why " " op[j]
                bad = 1
            }
            if (op[j] ~ /^vadd[ps]d$/ && args[j] ~ /\(%r[sb]p\)/) {
                why = why " " op[j] "-from-stack"
                bad = 1
            }
        }
        if (!mul) {
            continue
        }
        if (rows && !gather) {
            why = why " no-vgatherdpd"
            bad = 1
        }
        found[sweep] = 1
        if (bad) {
            failed = 1
            printf "isa_codegen: %s: %s loop %x-%x of %s:%s\n", sweep,
                rows ? "step" : "slot", lo[i], hi[i], fn, why \
                > "/dev/stderr"
        } else {
            ++good[sweep]
        }
    }
}
/^[0-9a-f]+ <.*>:$/ {
    check()
    fn = $0
    sub(/^[0-9a-f]+ </, "", fn)
    sub(/>:$/, "", fn)
    sweep = sweep_of(fn)
    n = 0
    nloops = 0
    next
}
/^ +[0-9a-f]+:\t/ {
    if (sweep == "") {
        next
    }
    split($0, f, "\t")
    a = f[1]
    gsub(/[ :]/, "", a)
    ins = f[2]
    mnem = ins
    sub(/ .*/, "", mnem)
    rest = ins
    sub(/^[^ ]* */, "", rest)
    ++n
    addr[n] = hex(a)
    op[n] = mnem
    args[n] = rest
    if (mnem ~ /^j/ && match(rest, /^[0-9a-f]+ </)) {
        t = hex(substr(rest, 1, RLENGTH - 2))
        if (t <= addr[n]) {
            ++nloops
            lo[nloops] = t
            hi[nloops] = addr[n]
        }
    }
}
END {
    check()
    split("spmv_row_blocks pack_spmv_row_blocks", kernels, " ")
    for (i = 1; i <= 2; ++i) {
        if (!(kernels[i] in found)) {
            failed = 1
            printf "isa_codegen: %s: no step loop found\n", kernels[i] \
                > "/dev/stderr"
        } else if (good[kernels[i]] > 0) {
            printf "isa_codegen: %s: %d step loop(s) at vector width\n",
                kernels[i], good[kernels[i]]
        }
    }
    split("spmv spmv_dot spmv_dot4", names, " ")
    split("4 8 16", widths, " ")
    for (i = 1; i <= 3; ++i) {
        for (j = 1; j <= 3; ++j) {
            s = names[i] "<" widths[j] ", double>"
            if (!(s in found)) {
                failed = 1
                printf "isa_codegen: %s: no slot loop found\n", s \
                    > "/dev/stderr"
            } else if (good[s] > 0) {
                printf "isa_codegen: %s: %d slot loop(s) at lane width\n",
                    s, good[s]
            }
        }
    }
    exit failed
}'
