// Batch-interleaved ELL slab: the matrix-side layout of the lockstep path.
//
// The scalar host path walks one entry's values at a time; the lockstep
// path advances W batch entries per thread, so the W entries' values are
// interleaved the same way the solver vectors are: the value of (lane l,
// row r, slot k) lives at (k * rows + r) * W + l. Each (r, k) step of the
// lockstep SpMV then reads one contiguous width-W vector of values and one
// contiguous width-W vector of x -- the CPU-lane image of the paper's
// coalesced column-major BatchEll accesses (Section IV-E), with the batch
// dimension playing the role the row dimension plays on the GPU.
//
// The shared pattern is ELL-ized once per solve for any source format
// (CSR / ELL / SELL-P share one pattern across the whole batch). Padding
// slots are remapped to COLUMN 0 instead of the -1 sentinel: their values
// are zero, so they contribute 0 * x[0] and the SpMV inner loop needs no
// padding branch. The slab's columns must therefore never be used for
// diagonal extraction (a column-0 alias would clobber row 0's diagonal);
// the pattern lists each row's diagonal slots from the source pattern.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "blas/batch_vector.hpp"
#include "matrix/batch_csr.hpp"
#include "matrix/batch_ell.hpp"
#include "matrix/batch_sellp.hpp"
#include "util/error.hpp"
#include "util/isa.hpp"
#include "util/types.hpp"

namespace bsis {

/// Shared ELL-ized lockstep pattern: column-major (slot-major) column
/// indices with padding remapped to column 0, and where each slot's value
/// and each row's diagonal sit in an entry of the source batch (all
/// entries share the source pattern, so one map serves the whole batch).
struct EllSlabPattern {
    index_type rows = 0;
    index_type nnz_per_row = 0;
    /// col_idxs[k * rows + r] = column of (row r, slot k); padding -> 0.
    std::vector<index_type> col_idxs;
    /// source_pos[r * nnz_per_row + k] = position of (row r, slot k) in a
    /// source entry's values, -1 for padding. Row-major, so a lane refill
    /// reads each row's source values in order.
    std::vector<index_type> source_pos;
    /// The source positions of row r's diagonal slots, in slot order, are
    /// diag_pos[diag_ptrs[r] .. diag_ptrs[r + 1]): empty when the row has
    /// no diagonal slot, several when the pattern repeats the entry.
    std::vector<index_type> diag_ptrs;
    std::vector<index_type> diag_pos;

    index_type stored_per_entry() const { return rows * nnz_per_row; }
};

/// Width-W view over one group's interleaved values.
template <typename T>
struct EllSlabView {
    index_type rows = 0;
    index_type nnz_per_row = 0;
    const index_type* col_idxs = nullptr;  ///< shared, padding -> column 0
    const T* values = nullptr;             ///< (k * rows + r) * W + l
    int width = 0;
};

/// Builds the lockstep pattern of `rows` rows and `width` slots per row
/// from slot(r, k) -> {column, source position}, position -1 (and any
/// column) for a padding slot.
template <typename Slot>
inline EllSlabPattern make_slab_pattern(index_type rows, index_type width,
                                        Slot&& slot)
{
    EllSlabPattern p;
    p.rows = rows;
    p.nnz_per_row = width;
    const auto size = static_cast<std::size_t>(rows) * width;
    p.col_idxs.assign(size, 0);
    p.source_pos.assign(size, -1);
    p.diag_ptrs.assign(1, 0);
    for (index_type r = 0; r < rows; ++r) {
        for (index_type k = 0; k < width; ++k) {
            const auto [c, pos] = slot(r, k);
            if (pos < 0) {
                continue;
            }
            p.col_idxs[static_cast<std::size_t>(k) * rows + r] = c;
            p.source_pos[static_cast<std::size_t>(r) * width + k] = pos;
            if (c == r) {
                p.diag_pos.push_back(pos);
            }
        }
        p.diag_ptrs.push_back(static_cast<index_type>(p.diag_pos.size()));
    }
    return p;
}

/// Builds the lockstep pattern from a shared CSR pattern: slot k of row r
/// is the k-th nonzero of the row, trailing slots are padding.
inline EllSlabPattern make_slab_pattern(const BatchCsr<real_type>& a)
{
    const auto& ptrs = a.row_ptrs();
    const auto& cols = a.col_idxs();
    return make_slab_pattern(
        a.rows(), a.max_nnz_per_row(), [&](index_type r, index_type k) {
            const index_type q = ptrs[r] + k;
            return q < ptrs[r + 1] ? std::pair{cols[q], q}
                                   : std::pair{index_type{0}, index_type{-1}};
        });
}

/// Builds the lockstep pattern from a shared ELL pattern (same layout;
/// padding slots remapped to column 0).
inline EllSlabPattern make_slab_pattern(const BatchEll<real_type>& a)
{
    const EllView<real_type> ev{a.rows(), a.nnz_per_row(),
                                a.col_idxs().data(), nullptr};
    return make_slab_pattern(
        a.rows(), a.nnz_per_row(), [&](index_type r, index_type k) {
            const auto q = static_cast<index_type>(ev.at(r, k));
            const index_type c = ev.col_idxs[q];
            return c != ell_padding ? std::pair{c, q}
                                    : std::pair{index_type{0}, index_type{-1}};
        });
}

/// Builds the lockstep pattern from a shared SELL-P pattern: the slab
/// width is the widest slice; narrower slices pad with column-0 zeros.
inline EllSlabPattern make_slab_pattern(const BatchSellp<real_type>& a)
{
    const auto& sets = a.slice_sets();
    const SellpView<real_type> ev{a.rows(), a.slice_size(), sets.data(),
                                  a.col_idxs().data(), nullptr};
    index_type width = 0;
    for (index_type s = 0; s + 1 < static_cast<index_type>(sets.size());
         ++s) {
        width = std::max(width, sets[s + 1] - sets[s]);
    }
    return make_slab_pattern(
        a.rows(), width, [&](index_type r, index_type k) {
            const index_type slice = r / a.slice_size();
            if (k < sets[slice + 1] - sets[slice]) {
                const auto q = static_cast<index_type>(ev.at(r, k));
                const index_type c = ev.col_idxs[q];
                if (c != ell_padding) {
                    return std::pair{c, q};
                }
            }
            return std::pair{index_type{0}, index_type{-1}};
        });
}

// The slab kernels run in the lane drivers, once per instruction-set copy
// (util/isa.hpp).
inline namespace BSIS_ISA_NAMESPACE {

/// The widest vector register this copy compiles for, in bytes: 16 at
/// baseline x86-64 (SSE2), 64 at x86-64-v4.
#if defined(__AVX512F__)
inline constexpr int lane_vector_bytes = 64;
#else
inline constexpr int lane_vector_bytes = 16;
#endif

/// A lane row of W T's as `count` vectors of `lanes` T's each, as wide as
/// the copy's registers allow. Element alignment and may_alias let a
/// pointer to it load or store any W-lane row of T storage in one
/// instruction per vector.
template <int W, typename T>
struct LaneVector {
    static constexpr int lanes =
        std::min(W, static_cast<int>(lane_vector_bytes / sizeof(T)));
    static constexpr int count = W / lanes;
    typedef T type __attribute__((vector_size(lanes * sizeof(T)),
                                  aligned(alignof(T)), may_alias));
};

/// Row r of y = A x over all W lanes, stored to `y_row`. Each (row, slot)
/// step is one W-wide load of values, one of x, a multiply and an add into
/// a register accumulator, in ascending slot order; padding contributes
/// 0 * x[0]. Written on lane vectors rather than as an `omp simd` lane
/// loop inside the slot loop, which GCC vectorized along the slot loop
/// instead (x gathered element by element, the row sum on the stack).
template <int W, typename T>
[[gnu::always_inline]] inline void spmv_slab_row(const EllSlabView<T>& a,
                                                 const T* x, index_type r,
                                                 T* y_row)
{
    using Lanes = LaneVector<W, T>;
    using V = typename Lanes::type;
    V sum[Lanes::count] = {};
    for (index_type k = 0; k < a.nnz_per_row; ++k) {
        const std::size_t slot = static_cast<std::size_t>(k) * a.rows + r;
        const auto* vals = reinterpret_cast<const V*>(a.values + slot * W);
        const auto* xs = reinterpret_cast<const V*>(
            x + static_cast<std::size_t>(a.col_idxs[slot]) * W);
#pragma GCC unroll 16
        for (int j = 0; j < Lanes::count; ++j) {
            sum[j] += vals[j] * xs[j];
        }
    }
    auto* out = reinterpret_cast<V*>(y_row);
#pragma GCC unroll 16
    for (int j = 0; j < Lanes::count; ++j) {
        out[j] = sum[j];
    }
}

/// Lockstep SpMV: y(:, l) := A_l x(:, l) for all W lanes of the group in
/// one pass over the slab. The column index of each (r, k) step is shared
/// by all lanes (shared sparsity pattern), so each step is one contiguous
/// width-W multiply-add (spmv_slab_row). Per-row accumulation runs in
/// ascending slot order, matching the scalar CSR and ELL SpMV summation
/// order lane for lane.
template <int W, typename T>
inline void spmv_lanes(const EllSlabView<T>& a, const T* x, T* y)
{
    BSIS_ASSERT(a.width == W);
    for (index_type r = 0; r < a.rows; ++r) {
        spmv_slab_row<W>(a, x, r, y + static_cast<std::size_t>(r) * W);
    }
}

/// Lockstep SpMV with a dot fused into the producing sweep:
/// y(:, l) := A_l x(:, l) and d[l] := w(:, l) . y(:, l). The freshly
/// computed y row is dotted against w while it is still in cache, so
/// the dot costs one extra read of w instead of a full separate sweep over
/// two vectors. Rows accumulate in ascending order -- the same order as
/// dot_lanes over the finished y -- so the result is bit-identical to the
/// unfused spmv_lanes + dot_lanes pair.
template <int W, typename T>
inline void spmv_lanes_dot(const EllSlabView<T>& a, const T* x, const T* w,
                           T* y, T* d)
{
    BSIS_ASSERT(a.width == W);
    T acc[W] = {};
    for (index_type r = 0; r < a.rows; ++r) {
        T* ys = y + static_cast<std::size_t>(r) * W;
        spmv_slab_row<W>(a, x, r, ys);
        const T* ws = w + static_cast<std::size_t>(r) * W;
#pragma omp simd
        for (int l = 0; l < W; ++l) {
            acc[l] += ws[l] * ys[l];
        }
    }
    for (int l = 0; l < W; ++l) {
        d[l] = acc[l];
    }
}

/// Lockstep SpMV with the pipelined BiCGStab reductions fused in:
/// y(:, l) := A_l x(:, l), d_yy[l] := y . y, d_yw[l] := y . w,
/// d_wv[l] := w . v, d_yv[l] := y . v. With y = t, w = s, v = r_hat this
/// replaces the dot2(t, t, s) sweep AND supplies s . r_hat and t . r_hat
/// for the rho recurrence, all while the t row is in cache (w and v are
/// read once per row). Accumulation order per result matches dot2_lanes /
/// dot_lanes over the finished vectors bit for bit.
template <int W, typename T>
inline void spmv_lanes_dot4(const EllSlabView<T>& a, const T* x, const T* w,
                            const T* v, T* y, T* d_yy, T* d_yw, T* d_wv,
                            T* d_yv)
{
    BSIS_ASSERT(a.width == W);
    T acc_yy[W] = {};
    T acc_yw[W] = {};
    T acc_wv[W] = {};
    T acc_yv[W] = {};
    for (index_type r = 0; r < a.rows; ++r) {
        T* ys = y + static_cast<std::size_t>(r) * W;
        spmv_slab_row<W>(a, x, r, ys);
        const T* ws = w + static_cast<std::size_t>(r) * W;
        const T* vs = v + static_cast<std::size_t>(r) * W;
#pragma omp simd
        for (int l = 0; l < W; ++l) {
            const T yi = ys[l];
            acc_yy[l] += yi * yi;
            acc_yw[l] += yi * ws[l];
            acc_wv[l] += ws[l] * vs[l];
            acc_yv[l] += yi * vs[l];
        }
    }
    for (int l = 0; l < W; ++l) {
        d_yy[l] = acc_yy[l];
        d_yw[l] = acc_yw[l];
        d_wv[l] = acc_wv[l];
        d_yv[l] = acc_yv[l];
    }
}

/// Loads one source entry into lane `lane` of a width-W group in one pass
/// over its rows: the entry's values (`source`, in the source format's
/// order) into the lane's slab column and its initial guess into the x
/// column, and sets the contiguous y := A x. `x_at(c)` is the guess at
/// column c, so A x comes from the entry-major guess, not the strided slab
/// column. Each row sums its slots from T{} in ascending slot order with
/// the slab's own terms (a padding slot adds T{} * x[0]), so y is bitwise
/// the lane's spmv_lanes column.
template <int W, typename T, typename XAt>
inline void load_slab_lane(const EllSlabPattern& p, const T* source,
                           XAt&& x_at, T* slab, T* x, T* y, int lane)
{
    const index_type width = p.nnz_per_row;
    const index_type* cols = p.col_idxs.data();
    for (index_type r = 0; r < p.rows; ++r) {
        const index_type* pos =
            p.source_pos.data() + static_cast<std::size_t>(r) * width;
        T sum{};
        for (index_type k = 0; k < width; ++k) {
            const T v = pos[k] < 0 ? T{} : source[pos[k]];
            const std::size_t slot = static_cast<std::size_t>(k) * p.rows + r;
            slab[slot * W + lane] = v;
            sum += v * x_at(cols[slot]);
        }
        y[r] = sum;
        x[static_cast<std::size_t>(r) * W + lane] = x_at(r);
    }
}

}  // inline namespace BSIS_ISA_NAMESPACE

}  // namespace bsis
