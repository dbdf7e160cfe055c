// The row-block SpMV kernels (matrix/row_blocks.hpp). bsis_core compiles
// this file only into its x86-64-v4 copy, at -ffp-contract=off: the steps
// are AVX-512 intrinsics, and each multiply and add rounds on its own, as
// the scalar kernels' do.
#include "matrix/row_blocks.hpp"

#include <immintrin.h>

#include "util/isa.hpp"

#if !defined(__AVX512F__) || !defined(BSIS_ISA_V4)
#error "row_blocks_v4.cpp is compiled only into the x86-64-v4 copy"
#endif

static_assert(sizeof(bsis::index_type) == 4,
              "the gathers take 32-bit indices");
static_assert(bsis::RowBlockPattern::rows_per_block == 8,
              "a block is one vector of eight doubles");

namespace bsis {
inline namespace BSIS_ISA_NAMESPACE {

namespace {

/// y rows 8b .. 8b + 7 of y := A x. Per slot: one masked gather of x at
/// the slot's columns, one 512-bit load of its values, a multiply and a
/// masked add into the block's register; then one store, masked on a
/// ragged tail. `Pack` gathers the values from the entry's `source`
/// through the pattern's positions and stores them to the strip on the
/// way; otherwise they are read from `values` in the pattern's layout.
/// The operands of the multiply (x first) and of the add (the product
/// first when `ProductFirst`) come in the order the format kernels'
/// scalar instructions take them; the two steps are written in assembly
/// because the compiler may swap the operands of a commutative intrinsic.
template <bool Pack, bool ProductFirst>
[[gnu::always_inline]] inline void row_block(const RowBlockPattern& p,
                                             index_type b,
                                             const real_type* values,
                                             real_type* strip,
                                             const real_type* x,
                                             real_type* y)
{
    const index_type* cols = p.col_idxs.data();
    const index_type* pos = p.source_pos.data();
    const std::uint8_t* masks = p.masks.data();
    const index_type first = p.slot_ptrs[static_cast<std::size_t>(b)];
    const index_type last = p.slot_ptrs[static_cast<std::size_t>(b) + 1];
    const real_type* v =
        values + p.value_base[static_cast<std::size_t>(b)];
    const __m512d zero = _mm512_setzero_pd();
    __m512d sum = zero;
    for (index_type s = first; s < last; ++s, v += p.value_stride) {
        const __mmask8 m = masks[s];
        const std::size_t at = static_cast<std::size_t>(s) * 8;
        __m512d a;
        if constexpr (Pack) {
            const __m256i q = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(pos + at));
            a = _mm512_mask_i32gather_pd(zero, m, q, values, 8);
            _mm512_storeu_pd(strip + at, a);
        } else {
            a = _mm512_maskz_loadu_pd(m, v);
        }
        const __m256i c =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cols + at));
        const __m512d xs = _mm512_mask_i32gather_pd(zero, m, c, x, 8);
        __m512d prod;
        asm("vmulpd %[a], %[xs], %[prod]"
            : [prod] "=v"(prod)
            : [xs] "v"(xs), [a] "v"(a));
        if constexpr (ProductFirst) {
            asm("vaddpd %[sum], %[prod], %[sum]%{%[m]%}"
                : [sum] "+v"(sum)
                : [prod] "v"(prod), [m] "Yk"(m));
        } else {
            asm("vaddpd %[prod], %[sum], %[sum]%{%[m]%}"
                : [sum] "+v"(sum)
                : [prod] "v"(prod), [m] "Yk"(m));
        }
    }
    const index_type r0 = b * 8;
    const index_type left = p.rows - r0;
    if (left >= 8) {
        _mm512_storeu_pd(y + r0, sum);
    } else {
        _mm512_mask_storeu_pd(y + r0, static_cast<__mmask8>((1u << left) - 1),
                              sum);
    }
}

template <bool Pack, bool ProductFirst>
void row_blocks(const RowBlockPattern& p, const real_type* values,
                real_type* strip, const real_type* x, real_type* y)
{
    const index_type blocks = p.blocks();
    for (index_type b = 0; b < blocks; ++b) {
        row_block<Pack, ProductFirst>(p, b, values, strip, x, y);
    }
}

}  // namespace

void spmv_row_blocks(const RowBlockPattern& p, const real_type* values,
                     const real_type* x, real_type* y)
{
    if (p.product_first) {
        row_blocks<false, true>(p, values, nullptr, x, y);
    } else {
        row_blocks<false, false>(p, values, nullptr, x, y);
    }
}

void pack_spmv_row_blocks(const RowBlockPattern& p, const real_type* source,
                          real_type* strip, const real_type* x, real_type* y)
{
    if (p.product_first) {
        row_blocks<true, true>(p, source, strip, x, y);
    } else {
        row_blocks<true, false>(p, source, strip, x, y);
    }
}

}  // inline namespace BSIS_ISA_NAMESPACE
}  // namespace bsis
