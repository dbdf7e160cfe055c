// BatchSellp: batch of sparse matrices sharing one SELL-P pattern.
//
// SELL-P (sliced ELLPACK with padding) is the middle ground between
// BatchCsr and BatchEll: rows are grouped into slices of `slice_size`
// (one warp), each slice is padded only to ITS longest row, and values are
// stored slice-locally column-major -- coalesced like ELL, but without
// paying global padding for one long row. This is the format family
// GINKGO generalizes ELL with; for the perfectly uniform XGC stencils it
// degenerates to ELL (same storage, same access pattern), and the tests
// verify exactly that.
#pragma once

#include <vector>

#include "blas/batch_vector.hpp"
#include "matrix/batch_ell.hpp"
#include "util/error.hpp"
#include "util/isa.hpp"
#include "util/types.hpp"

namespace bsis {

/// One entry of a BatchSellp: shared pattern + this entry's values.
template <typename T>
struct SellpView {
    index_type rows = 0;
    index_type slice_size = 0;
    const index_type* slice_sets = nullptr;  ///< per-slice width prefix sum
    const index_type* col_idxs = nullptr;    ///< slice-local column-major
    const T* values = nullptr;

    index_type num_slices() const
    {
        return (rows + slice_size - 1) / slice_size;
    }

    /// Linear index of (global row r, slot k) in the slice-local layout.
    std::size_t at(index_type r, index_type k) const
    {
        const index_type slice = r / slice_size;
        const index_type local = r % slice_size;
        return (static_cast<std::size_t>(slice_sets[slice]) + k) *
                   slice_size +
               local;
    }
};

template <typename T>
class BatchSellp {
public:
    BatchSellp() = default;

    /// Builds the batch from a shared pattern: `slice_sets` holds the
    /// prefix sum of per-slice widths (num_slices + 1 entries), and
    /// `col_idxs` the slice-local column-major indices with `ell_padding`
    /// marking padded slots. Values are zero-initialized.
    BatchSellp(size_type num_batch, index_type rows, index_type slice_size,
               std::vector<index_type> slice_sets,
               std::vector<index_type> col_idxs)
        : num_batch_(num_batch),
          rows_(rows),
          slice_size_(slice_size),
          slice_sets_(std::move(slice_sets)),
          col_idxs_(std::move(col_idxs))
    {
        BSIS_ENSURE_ARG(num_batch >= 0, "negative batch count");
        BSIS_ENSURE_ARG(slice_size >= 1, "slice size must be positive");
        const index_type slices = (rows + slice_size - 1) / slice_size;
        BSIS_ENSURE_DIMS(static_cast<index_type>(slice_sets_.size()) ==
                             slices + 1,
                         "slice_sets must have num_slices + 1 entries");
        BSIS_ENSURE_DIMS(slice_sets_.front() == 0, "slice_sets[0] must be 0");
        for (index_type s = 0; s < slices; ++s) {
            BSIS_ENSURE_DIMS(slice_sets_[s] <= slice_sets_[s + 1],
                             "slice_sets must be non-decreasing");
        }
        BSIS_ENSURE_DIMS(
            static_cast<size_type>(col_idxs_.size()) ==
                static_cast<size_type>(slice_sets_.back()) * slice_size,
            "col_idxs size must be slice_sets.back() * slice_size");
        values_.assign(static_cast<std::size_t>(num_batch) *
                           col_idxs_.size(),
                       T{});
    }

    size_type num_batch() const { return num_batch_; }
    index_type rows() const { return rows_; }
    index_type slice_size() const { return slice_size_; }
    index_type stored_per_entry() const
    {
        return static_cast<index_type>(col_idxs_.size());
    }

    const std::vector<index_type>& slice_sets() const { return slice_sets_; }
    const std::vector<index_type>& col_idxs() const { return col_idxs_; }

    size_type storage_bytes() const
    {
        return static_cast<size_type>(values_.size() * sizeof(T) +
                                      col_idxs_.size() * sizeof(index_type) +
                                      slice_sets_.size() *
                                          sizeof(index_type));
    }

    BSIS_INLINE_ONLY SellpView<T> entry(size_type b) const
    {
        BSIS_ASSERT(b >= 0 && b < num_batch_);
        return {rows_, slice_size_, slice_sets_.data(), col_idxs_.data(),
                values_.data() +
                    static_cast<std::size_t>(b) * col_idxs_.size()};
    }

    T* values(size_type b)
    {
        BSIS_ASSERT(b >= 0 && b < num_batch_);
        return values_.data() + static_cast<std::size_t>(b) * col_idxs_.size();
    }

private:
    size_type num_batch_ = 0;
    index_type rows_ = 0;
    index_type slice_size_ = 0;
    std::vector<index_type> slice_sets_;
    std::vector<index_type> col_idxs_;
    std::vector<T> values_;
};

/// y := A x for one SELL-P entry (slice-wise thread-per-row traversal).
template <typename T>
inline void spmv(SellpView<T> a, ConstVecView<T> x, VecView<T> y)
{
    BSIS_ASSERT(y.len == a.rows);
    for (index_type r = 0; r < a.rows; ++r) {
        y[r] = T{};
    }
    for (index_type slice = 0; slice < a.num_slices(); ++slice) {
        const index_type width =
            a.slice_sets[slice + 1] - a.slice_sets[slice];
        const index_type r0 = slice * a.slice_size;
        for (index_type k = 0; k < width; ++k) {
            for (index_type local = 0;
                 local < a.slice_size && r0 + local < a.rows; ++local) {
                const std::size_t idx =
                    (static_cast<std::size_t>(a.slice_sets[slice]) + k) *
                        a.slice_size +
                    local;
                const index_type c = a.col_idxs[idx];
                if (c != ell_padding) {
                    y[r0 + local] += a.values[idx] * x[c];
                }
            }
        }
    }
}

/// y := A^T x for one SELL-P entry (scatter traversal, as in the CSR and
/// ELL transpose kernels; needed by the BiCG shadow recurrence).
template <typename T>
inline void spmv_transpose(SellpView<T> a, ConstVecView<T> x, VecView<T> y)
{
    BSIS_ASSERT(x.len == a.rows);
    for (index_type c = 0; c < y.len; ++c) {
        y[c] = T{};
    }
    for (index_type r = 0; r < a.rows; ++r) {
        const index_type slice = r / a.slice_size;
        const index_type width =
            a.slice_sets[slice + 1] - a.slice_sets[slice];
        for (index_type k = 0; k < width; ++k) {
            const index_type c = a.col_idxs[a.at(r, k)];
            if (c != ell_padding) {
                y[c] += a.values[a.at(r, k)] * x[r];
            }
        }
    }
}

/// Diagonal entry of row r of one SELL-P entry: the sum of every slot on
/// the diagonal, which is what spmv applies when a pattern repeats it.
template <typename T>
inline T diagonal_at(SellpView<T> a, index_type r)
{
    const index_type slice = r / a.slice_size;
    const index_type width = a.slice_sets[slice + 1] - a.slice_sets[slice];
    T d{};
    for (index_type k = 0; k < width; ++k) {
        if (a.col_idxs[a.at(r, k)] == r) {
            d += a.values[a.at(r, k)];
        }
    }
    return d;
}

/// Extracts the diagonal of one SELL-P entry (scalar-Jacobi setup).
template <typename T>
inline void extract_diagonal(SellpView<T> a, VecView<T> diag)
{
    BSIS_ASSERT(diag.len == a.rows);
    for (index_type r = 0; r < a.rows; ++r) {
        diag[r] = diagonal_at(a, r);
    }
}

}  // namespace bsis
