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
// padding branch. The original padded pattern must therefore never be used
// for diagonal extraction (a column-0 alias would clobber row 0's
// diagonal); the lockstep driver extracts diagonals from the source views.
#pragma once

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
/// indices with padding remapped to column 0.
struct EllSlabPattern {
    index_type rows = 0;
    index_type nnz_per_row = 0;
    /// col_idxs[k * rows + r] = column of (row r, slot k); padding -> 0.
    std::vector<index_type> col_idxs;

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

/// Builds the lockstep pattern from a shared CSR pattern: slot k of row r
/// is the k-th nonzero of the row, trailing slots are padding.
inline EllSlabPattern make_slab_pattern(const BatchCsr<real_type>& a)
{
    EllSlabPattern p;
    p.rows = a.rows();
    p.nnz_per_row = a.max_nnz_per_row();
    p.col_idxs.assign(
        static_cast<std::size_t>(p.rows) * p.nnz_per_row, 0);
    const auto& ptrs = a.row_ptrs();
    const auto& cols = a.col_idxs();
    for (index_type r = 0; r < p.rows; ++r) {
        index_type k = 0;
        for (index_type q = ptrs[r]; q < ptrs[r + 1]; ++q, ++k) {
            p.col_idxs[static_cast<std::size_t>(k) * p.rows + r] = cols[q];
        }
    }
    return p;
}

/// Builds the lockstep pattern from a shared ELL pattern (same layout;
/// padding slots remapped to column 0).
inline EllSlabPattern make_slab_pattern(const BatchEll<real_type>& a)
{
    EllSlabPattern p;
    p.rows = a.rows();
    p.nnz_per_row = a.nnz_per_row();
    p.col_idxs.assign(a.col_idxs().begin(), a.col_idxs().end());
    for (auto& c : p.col_idxs) {
        if (c == ell_padding) {
            c = 0;
        }
    }
    return p;
}

/// Builds the lockstep pattern from a shared SELL-P pattern: the slab
/// width is the widest slice; narrower slices pad with column-0 zeros.
inline EllSlabPattern make_slab_pattern(const BatchSellp<real_type>& a)
{
    EllSlabPattern p;
    p.rows = a.rows();
    const auto& sets = a.slice_sets();
    const auto ev = a.entry(0);
    index_type width = 0;
    for (index_type s = 0; s + 1 < static_cast<index_type>(sets.size());
         ++s) {
        width = std::max(width, sets[s + 1] - sets[s]);
    }
    p.nnz_per_row = width;
    p.col_idxs.assign(static_cast<std::size_t>(p.rows) * width, 0);
    for (index_type r = 0; r < p.rows; ++r) {
        const index_type slice = r / a.slice_size();
        const index_type slice_width = sets[slice + 1] - sets[slice];
        for (index_type k = 0; k < slice_width; ++k) {
            const index_type c = a.col_idxs()[ev.at(r, k)];
            if (c != ell_padding) {
                p.col_idxs[static_cast<std::size_t>(k) * p.rows + r] = c;
            }
        }
    }
    return p;
}

// The slab kernels run in the lane drivers, once per instruction-set copy
// (util/isa.hpp).
inline namespace BSIS_ISA_NAMESPACE {

/// Packs one CSR entry's values into lane `lane` of the slab (trailing
/// padding slots of each row are zeroed).
template <typename T>
inline void pack_slab_lane(const CsrView<T>& a, const EllSlabPattern& p,
                           T* slab, int width, int lane)
{
    for (index_type r = 0; r < p.rows; ++r) {
        const index_type row_nnz = a.row_ptrs[r + 1] - a.row_ptrs[r];
        for (index_type k = 0; k < p.nnz_per_row; ++k) {
            const T v =
                k < row_nnz ? a.values[a.row_ptrs[r] + k] : T{};
            slab[(static_cast<std::size_t>(k) * p.rows + r) * width +
                 lane] = v;
        }
    }
}

/// Packs one ELL entry's values into lane `lane` of the slab.
template <typename T>
inline void pack_slab_lane(const EllView<T>& a, const EllSlabPattern& p,
                           T* slab, int width, int lane)
{
    for (index_type k = 0; k < p.nnz_per_row; ++k) {
        for (index_type r = 0; r < p.rows; ++r) {
            const std::size_t src = static_cast<std::size_t>(k) * p.rows + r;
            slab[src * width + lane] =
                a.col_idxs[src] == ell_padding ? T{} : a.values[src];
        }
    }
}

/// Packs one SELL-P entry's values into lane `lane` of the slab (slices
/// narrower than the slab width pad with zeros).
template <typename T>
inline void pack_slab_lane(const SellpView<T>& a, const EllSlabPattern& p,
                           T* slab, int width, int lane)
{
    for (index_type r = 0; r < p.rows; ++r) {
        const index_type slice = r / a.slice_size;
        const index_type slice_width =
            a.slice_sets[slice + 1] - a.slice_sets[slice];
        for (index_type k = 0; k < p.nnz_per_row; ++k) {
            T v{};
            if (k < slice_width && a.col_idxs[a.at(r, k)] != ell_padding) {
                v = a.values[a.at(r, k)];
            }
            slab[(static_cast<std::size_t>(k) * p.rows + r) * width +
                 lane] = v;
        }
    }
}

/// Lockstep SpMV: y(:, l) := A_l x(:, l) for all W lanes of the group in
/// one pass over the slab. The column index of each (r, k) step is shared
/// by all lanes (shared sparsity pattern), so the inner loop is one
/// contiguous width-W multiply-add; padding contributes 0 * x[0].
/// Per-row accumulation runs in ascending slot order, matching the scalar
/// CSR and ELL SpMV summation order lane for lane.
template <int W, typename T>
inline void spmv_lanes(const EllSlabView<T>& a, const T* x, T* y)
{
    BSIS_ASSERT(a.width == W);
    for (index_type r = 0; r < a.rows; ++r) {
        T sum[W] = {};
        for (index_type k = 0; k < a.nnz_per_row; ++k) {
            const std::size_t slot = static_cast<std::size_t>(k) * a.rows + r;
            const index_type c = a.col_idxs[slot];
            const T* vals = a.values + slot * W;
            const T* xs = x + static_cast<std::size_t>(c) * W;
#pragma omp simd
            for (int l = 0; l < W; ++l) {
                sum[l] += vals[l] * xs[l];
            }
        }
#pragma omp simd
        for (int l = 0; l < W; ++l) {
            y[static_cast<std::size_t>(r) * W + l] = sum[l];
        }
    }
}

/// Lockstep SpMV with a dot fused into the producing sweep:
/// y(:, l) := A_l x(:, l) and d[l] := w(:, l) . y(:, l). The freshly
/// computed y row is dotted against w while it is still in registers, so
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
        T sum[W] = {};
        for (index_type k = 0; k < a.nnz_per_row; ++k) {
            const std::size_t slot = static_cast<std::size_t>(k) * a.rows + r;
            const index_type c = a.col_idxs[slot];
            const T* vals = a.values + slot * W;
            const T* xs = x + static_cast<std::size_t>(c) * W;
#pragma omp simd
            for (int l = 0; l < W; ++l) {
                sum[l] += vals[l] * xs[l];
            }
        }
        const T* ws = w + static_cast<std::size_t>(r) * W;
#pragma omp simd
        for (int l = 0; l < W; ++l) {
            y[static_cast<std::size_t>(r) * W + l] = sum[l];
            acc[l] += ws[l] * sum[l];
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
/// for the rho recurrence, all while t is register-resident (w and v are
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
        T sum[W] = {};
        for (index_type k = 0; k < a.nnz_per_row; ++k) {
            const std::size_t slot = static_cast<std::size_t>(k) * a.rows + r;
            const index_type c = a.col_idxs[slot];
            const T* vals = a.values + slot * W;
            const T* xs = x + static_cast<std::size_t>(c) * W;
#pragma omp simd
            for (int l = 0; l < W; ++l) {
                sum[l] += vals[l] * xs[l];
            }
        }
        const T* ws = w + static_cast<std::size_t>(r) * W;
        const T* vs = v + static_cast<std::size_t>(r) * W;
#pragma omp simd
        for (int l = 0; l < W; ++l) {
            const T yi = sum[l];
            y[static_cast<std::size_t>(r) * W + l] = yi;
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

/// Scalar SpMV of one lane's column of the slab: y[r] := A_l x[r]. Used by
/// the per-lane refill setup (initial residual of a freshly loaded system)
/// where only one lane's data is valid.
template <typename T>
inline void spmv_slab_lane(const EllSlabView<T>& a, int lane, const T* x,
                           T* y)
{
    for (index_type r = 0; r < a.rows; ++r) {
        T sum{};
        for (index_type k = 0; k < a.nnz_per_row; ++k) {
            const std::size_t slot = static_cast<std::size_t>(k) * a.rows + r;
            const index_type c = a.col_idxs[slot];
            sum += a.values[slot * a.width + lane] *
                   x[static_cast<std::size_t>(c) * a.width + lane];
        }
        y[static_cast<std::size_t>(r) * a.width + lane] = sum;
    }
}

}  // inline namespace BSIS_ISA_NAMESPACE

}  // namespace bsis
