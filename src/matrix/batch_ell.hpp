// BatchEll: batch of sparse matrices sharing one ELLPACK sparsity pattern.
//
// Rows are padded to a uniform number of nonzeros (`nnz_per_row`), removing
// the row-pointer array. Column indices and values are stored COLUMN-MAJOR
// over (row, slot): element (r, k) lives at k * rows + r, so consecutive
// GPU threads (one thread per row, Section IV-E) read consecutive memory --
// fully coalesced. Padding slots carry column index -1 and value 0.
//
// Storage cost (paper's formula):
//   num_matrices * (nnz_per_row * rows) * sizeof(value)
//   + nnz_per_row * rows * sizeof(index)
#pragma once

#include <vector>

#include "blas/batch_vector.hpp"
#include "util/error.hpp"
#include "util/isa.hpp"
#include "util/types.hpp"

namespace bsis {

/// Sentinel column index marking an ELL padding slot.
inline constexpr index_type ell_padding = -1;

/// One entry of a BatchEll: shared column-major pattern + this entry's values.
template <typename T>
struct EllView {
    index_type rows = 0;
    index_type nnz_per_row = 0;
    const index_type* col_idxs = nullptr;  ///< column-major (slot-major)
    const T* values = nullptr;             ///< column-major (slot-major)

    index_type stored_per_entry() const { return rows * nnz_per_row; }

    /// Linear index of (row r, slot k) in the column-major layout.
    std::size_t at(index_type r, index_type k) const
    {
        return static_cast<std::size_t>(k) * rows + r;
    }
};

template <typename T>
class BatchEll {
public:
    BatchEll() = default;

    /// Builds the batch from a shared column-major pattern; values are zero.
    BatchEll(size_type num_batch, index_type rows, index_type nnz_per_row,
             std::vector<index_type> col_idxs)
        : num_batch_(num_batch),
          rows_(rows),
          nnz_per_row_(nnz_per_row),
          col_idxs_(std::move(col_idxs))
    {
        BSIS_ENSURE_ARG(num_batch >= 0, "negative batch count");
        BSIS_ENSURE_DIMS(static_cast<size_type>(col_idxs_.size()) ==
                             static_cast<size_type>(rows) * nnz_per_row,
                         "col_idxs size must be rows * nnz_per_row");
        for (auto c : col_idxs_) {
            BSIS_ENSURE_DIMS(c == ell_padding || (c >= 0 && c < rows),
                             "column index out of range");
        }
        values_.assign(static_cast<std::size_t>(num_batch) * rows *
                           nnz_per_row,
                       T{});
    }

    size_type num_batch() const { return num_batch_; }
    index_type rows() const { return rows_; }
    index_type nnz_per_row() const { return nnz_per_row_; }
    index_type stored_per_entry() const { return rows_ * nnz_per_row_; }

    const std::vector<index_type>& col_idxs() const { return col_idxs_; }

    /// Bytes of storage: values + shared pattern (Fig. 3 accounting).
    size_type storage_bytes() const
    {
        return static_cast<size_type>(values_.size() * sizeof(T) +
                                      col_idxs_.size() * sizeof(index_type));
    }

    BSIS_INLINE_ONLY EllView<T> entry(size_type b) const
    {
        BSIS_ASSERT(b >= 0 && b < num_batch_);
        return {rows_, nnz_per_row_, col_idxs_.data(),
                values_.data() +
                    static_cast<std::size_t>(b) * stored_per_entry()};
    }

    T* values(size_type b)
    {
        BSIS_ASSERT(b >= 0 && b < num_batch_);
        return values_.data() +
               static_cast<std::size_t>(b) * stored_per_entry();
    }

    const T* values(size_type b) const
    {
        BSIS_ASSERT(b >= 0 && b < num_batch_);
        return values_.data() +
               static_cast<std::size_t>(b) * stored_per_entry();
    }

    T* data() { return values_.data(); }
    const T* data() const { return values_.data(); }

private:
    size_type num_batch_ = 0;
    index_type rows_ = 0;
    index_type nnz_per_row_ = 0;
    std::vector<index_type> col_idxs_;
    std::vector<T> values_;
};

/// y := A x for one ELL entry (thread-per-row traversal order).
template <typename T>
inline void spmv(EllView<T> a, ConstVecView<T> x, VecView<T> y)
{
    BSIS_ASSERT(y.len == a.rows);
    for (index_type r = 0; r < a.rows; ++r) {
        y[r] = T{};
    }
    // Slot-outer loop mirrors the coalesced GPU access pattern: all rows
    // advance through slot k together.
    for (index_type k = 0; k < a.nnz_per_row; ++k) {
        const index_type* cols = a.col_idxs + a.at(0, k);
        const T* vals = a.values + a.at(0, k);
        for (index_type r = 0; r < a.rows; ++r) {
            const index_type c = cols[r];
            if (c != ell_padding) {
                y[r] += vals[r] * x[c];
            }
        }
    }
}

/// y := A^T x for one ELL entry (scatter form; used by BiCG).
template <typename T>
inline void spmv_transpose(EllView<T> a, ConstVecView<T> x, VecView<T> y)
{
    BSIS_ASSERT(x.len == a.rows);
    for (index_type c = 0; c < y.len; ++c) {
        y[c] = T{};
    }
    for (index_type k = 0; k < a.nnz_per_row; ++k) {
        for (index_type r = 0; r < a.rows; ++r) {
            const index_type c = a.col_idxs[a.at(r, k)];
            if (c != ell_padding) {
                y[c] += a.values[a.at(r, k)] * x[r];
            }
        }
    }
}

/// Diagonal entry of row r of one ELL entry: the sum of every slot on the
/// diagonal, which is what spmv applies when a pattern repeats it.
template <typename T>
inline T diagonal_at(EllView<T> a, index_type r)
{
    T d{};
    for (index_type k = 0; k < a.nnz_per_row; ++k) {
        if (a.col_idxs[a.at(r, k)] == r) {
            d += a.values[a.at(r, k)];
        }
    }
    return d;
}

/// Extracts the diagonal of one ELL entry (scalar-Jacobi setup).
template <typename T>
inline void extract_diagonal(EllView<T> a, VecView<T> diag)
{
    BSIS_ASSERT(diag.len == a.rows);
    for (index_type r = 0; r < a.rows; ++r) {
        diag[r] = diagonal_at(a, r);
    }
}

}  // namespace bsis
