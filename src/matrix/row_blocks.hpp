// Row blocks: one system's rows in the lanes of a vector register.
//
// In the paper's ELL kernel each warp lane computes one row of a system
// (Section IV-E). The host's width-1 scalar path maps the same way at
// x86-64-v4: eight consecutive rows of one system fill the eight double
// lanes of an AVX-512 register. Per (block, slot) step the SpMV makes one
// masked gather of x at the slot's columns, one 512-bit load of the slot's
// values, a multiply and a masked add into the block's accumulator, and
// per block one store, masked on a ragged tail. A lane whose mask bit is
// clear (a padding slot, a row past the end) is neither loaded nor added,
// so every row sums exactly its own terms from zero in its source order:
// the bits of the format's own `spmv`, whatever x holds.
//
// The pattern is built once per solve from the batch's shared pattern.
// Within a block the slots are slot-major: the values of (block b, slot k)
// are eight consecutive doubles. An ELL entry (column-major) and a SELL-P
// entry whose slice size is a multiple of 8 already store them that way and
// are read in place; CSR, and SELL-P with other slice sizes, are packed per
// system into a strip of the solving thread's workspace at set-up.
//
// The kernels exist only in the x86-64-v4 copy (matrix/row_blocks_v4.cpp,
// util/isa.hpp); the width-1 drivers around them stay baseline.
#pragma once

#include <cstdint>
#include <vector>

#include "matrix/batch_csr.hpp"
#include "matrix/batch_ell.hpp"
#include "matrix/batch_sellp.hpp"
#include "util/error.hpp"
#include "util/isa.hpp"
#include "util/types.hpp"

namespace bsis {

/// The shared row-block layout of a batch: blocks of `rows_per_block`
/// rows, slot-major inside a block, padded slots masked.
struct RowBlockPattern {
    static constexpr int rows_per_block = 8;

    index_type rows = 0;
    /// Block b (rows 8 b .. 8 b + 7) owns the slots from slot_ptrs[b] up
    /// to slot_ptrs[b + 1].
    std::vector<index_type> slot_ptrs;
    /// Column of (slot s, lane j) at col_idxs[8 s + j]; 0 where masked.
    std::vector<index_type> col_idxs;
    /// Bit j of masks[s] is set when lane j of slot s holds a stored entry.
    std::vector<std::uint8_t> masks;
    /// The values of block b's k-th slot start at
    /// value_base[b] + k * value_stride of the layout the kernel reads.
    std::vector<index_type> value_base;
    index_type value_stride = 0;
    /// Packed layouts only: position of (slot s, lane j) in an entry's
    /// source values, -1 where masked. Empty when the kernel reads the
    /// entry in place.
    std::vector<index_type> source_pos;
    /// Whether each add takes the product as its first operand, as the
    /// format's own kernel does: ELL and SELL-P add each product into y in
    /// memory, CSR adds it to a row sum in a register. IEEE 754 leaves open
    /// which NaN an add of two NaNs returns and x86 returns the first
    /// operand's, so the same order keeps even NaN payloads bit for bit.
    bool product_first = false;

    BSIS_INLINE_ONLY index_type blocks() const
    {
        return static_cast<index_type>(slot_ptrs.size()) - 1;
    }
    BSIS_INLINE_ONLY bool packed() const { return !source_pos.empty(); }
    /// Doubles a thread's strip holds for one packed entry, with the slack
    /// that aligning its start to a cache line takes.
    index_type strip_length() const
    {
        return packed() ? static_cast<index_type>(col_idxs.size()) +
                              rows_per_block - 1
                        : 0;
    }
};

/// Builds the row blocks of a shared CSR pattern: slot k of a row is its
/// k-th nonzero; the values are packed.
RowBlockPattern make_row_block_pattern(const BatchCsr<real_type>& a);

/// Builds the row blocks of a shared ELL pattern, read in place.
RowBlockPattern make_row_block_pattern(const BatchEll<real_type>& a);

/// Builds the row blocks of a shared SELL-P pattern: read in place when
/// the slice size is a multiple of 8, else packed.
RowBlockPattern make_row_block_pattern(const BatchSellp<real_type>& a);

/// The first cache-line boundary at or after `p`: where a strip of
/// `strip_length()` doubles starting at p keeps its packed entry.
inline real_type* row_block_strip(real_type* p)
{
    const auto at = reinterpret_cast<std::uintptr_t>(p);
    return reinterpret_cast<real_type*>((at + 63) & ~std::uintptr_t{63});
}

/// The x86-64-v4 kernels (matrix/row_blocks_v4.cpp), defined where
/// BSIS_WIDE_LANES is.
inline namespace isa_v4 {

/// y := A x on row blocks, `values` in the pattern's layout: the entry's
/// own values, or its packed strip.
void spmv_row_blocks(const RowBlockPattern& p, const real_type* values,
                     const real_type* x, real_type* y);

/// Packs an entry's `source` values into `strip` (a packed pattern) and
/// computes y := A x in the same pass.
void pack_spmv_row_blocks(const RowBlockPattern& p, const real_type* source,
                          real_type* strip, const real_type* x, real_type* y);

}  // inline namespace isa_v4

/// One batch entry on the shared row blocks: the pattern, the entry's
/// values in its source format's order and, for a packed pattern, the
/// cache-line-aligned strip its copy lives in. Empty (no pattern) when the
/// entry's SpMV runs the format's own kernel.
struct RowBlockEntry {
    const RowBlockPattern* pattern = nullptr;
    const real_type* source = nullptr;
    real_type* strip = nullptr;

    explicit operator bool() const { return pattern != nullptr; }

    /// y := A x. At set-up (`setup`), a packed pattern first copies the
    /// entry's values into the strip in the same pass; later calls read
    /// the strip.
    void spmv(const real_type* x, real_type* y, bool setup) const
    {
#ifdef BSIS_WIDE_LANES
        if (!pattern->packed()) {
            spmv_row_blocks(*pattern, source, x, y);
        } else if (setup) {
            pack_spmv_row_blocks(*pattern, source, strip, x, y);
        } else {
            spmv_row_blocks(*pattern, strip, x, y);
        }
#else
        (void)x;
        (void)y;
        (void)setup;
        BSIS_ASSERT(!"row blocks run only in the x86-64-v4 copy");
#endif
    }
};

}  // namespace bsis
