// BatchCsr: batch of sparse matrices sharing one CSR sparsity pattern.
//
// As in Section IV-A of the paper, the column indices and row pointers are
// stored once for the whole batch; only the nonzero values are replicated
// per batch entry. Storage cost (paper's formula):
//   num_matrices * nnz * sizeof(value)
//   + (rows + 1) * sizeof(index) + nnz * sizeof(index)
#pragma once

#include <algorithm>
#include <vector>

#include "blas/batch_vector.hpp"
#include "util/error.hpp"
#include "util/isa.hpp"
#include "util/types.hpp"

namespace bsis {

/// One entry of a BatchCsr: shared pattern + this entry's values.
template <typename T>
struct CsrView {
    index_type rows = 0;
    const index_type* row_ptrs = nullptr;
    const index_type* col_idxs = nullptr;
    const T* values = nullptr;

    index_type nnz() const { return row_ptrs[rows]; }
};

template <typename T>
class BatchCsr {
public:
    BatchCsr() = default;

    /// Builds the batch from a shared pattern; values are zero-initialized.
    BatchCsr(size_type num_batch, index_type rows,
             std::vector<index_type> row_ptrs,
             std::vector<index_type> col_idxs)
        : num_batch_(num_batch),
          rows_(rows),
          row_ptrs_(std::move(row_ptrs)),
          col_idxs_(std::move(col_idxs))
    {
        BSIS_ENSURE_ARG(num_batch >= 0, "negative batch count");
        BSIS_ENSURE_DIMS(
            static_cast<index_type>(row_ptrs_.size()) == rows + 1,
            "row_ptrs must have rows+1 entries");
        BSIS_ENSURE_DIMS(row_ptrs_.front() == 0, "row_ptrs[0] must be 0");
        for (index_type r = 0; r < rows; ++r) {
            BSIS_ENSURE_DIMS(row_ptrs_[r] <= row_ptrs_[r + 1],
                             "row_ptrs must be non-decreasing");
            max_nnz_per_row_ = std::max(max_nnz_per_row_,
                                        row_ptrs_[r + 1] - row_ptrs_[r]);
        }
        BSIS_ENSURE_DIMS(static_cast<index_type>(col_idxs_.size()) ==
                             row_ptrs_.back(),
                         "col_idxs size must equal row_ptrs[rows]");
        values_.assign(
            static_cast<std::size_t>(num_batch) * row_ptrs_.back(), T{});
    }

    size_type num_batch() const { return num_batch_; }
    index_type rows() const { return rows_; }
    index_type nnz_per_entry() const { return row_ptrs_.back(); }

    /// Longest row of the shared pattern (the ELL width the batch would
    /// convert to). Computed once at construction -- the executors consult
    /// it per solve, so it must not rescan row_ptrs.
    index_type max_nnz_per_row() const { return max_nnz_per_row_; }

    const std::vector<index_type>& row_ptrs() const { return row_ptrs_; }
    const std::vector<index_type>& col_idxs() const { return col_idxs_; }

    /// Bytes of storage: values + shared pattern (Fig. 3 accounting).
    size_type storage_bytes() const
    {
        return static_cast<size_type>(values_.size() * sizeof(T) +
                                      row_ptrs_.size() * sizeof(index_type) +
                                      col_idxs_.size() * sizeof(index_type));
    }

    BSIS_INLINE_ONLY CsrView<T> entry(size_type b) const
    {
        BSIS_ASSERT(b >= 0 && b < num_batch_);
        return {rows_, row_ptrs_.data(), col_idxs_.data(),
                values_.data() +
                    static_cast<std::size_t>(b) * nnz_per_entry()};
    }

    T* values(size_type b)
    {
        BSIS_ASSERT(b >= 0 && b < num_batch_);
        return values_.data() + static_cast<std::size_t>(b) * nnz_per_entry();
    }

    const T* values(size_type b) const
    {
        BSIS_ASSERT(b >= 0 && b < num_batch_);
        return values_.data() + static_cast<std::size_t>(b) * nnz_per_entry();
    }

    T* data() { return values_.data(); }
    const T* data() const { return values_.data(); }

private:
    size_type num_batch_ = 0;
    index_type rows_ = 0;
    index_type max_nnz_per_row_ = 0;
    std::vector<index_type> row_ptrs_;
    std::vector<index_type> col_idxs_;
    std::vector<T> values_;
};

/// y := A x for one CSR entry.
template <typename T>
inline void spmv(CsrView<T> a, ConstVecView<T> x, VecView<T> y)
{
    BSIS_ASSERT(y.len == a.rows);
    for (index_type r = 0; r < a.rows; ++r) {
        T sum{};
        for (index_type k = a.row_ptrs[r]; k < a.row_ptrs[r + 1]; ++k) {
            sum += a.values[k] * x[a.col_idxs[k]];
        }
        y[r] = sum;
    }
}

/// y := A^T x for one CSR entry (scatter form; used by BiCG).
template <typename T>
inline void spmv_transpose(CsrView<T> a, ConstVecView<T> x, VecView<T> y)
{
    BSIS_ASSERT(x.len == a.rows);
    for (index_type c = 0; c < y.len; ++c) {
        y[c] = T{};
    }
    for (index_type r = 0; r < a.rows; ++r) {
        for (index_type k = a.row_ptrs[r]; k < a.row_ptrs[r + 1]; ++k) {
            y[a.col_idxs[k]] += a.values[k] * x[r];
        }
    }
}

/// Diagonal entry of row r of one CSR entry: the sum of every slot on the
/// diagonal, which is what spmv applies when a pattern repeats it.
template <typename T>
inline T diagonal_at(CsrView<T> a, index_type r)
{
    T d{};
    for (index_type k = a.row_ptrs[r]; k < a.row_ptrs[r + 1]; ++k) {
        if (a.col_idxs[k] == r) {
            d += a.values[k];
        }
    }
    return d;
}

/// Extracts the diagonal of one CSR entry (scalar-Jacobi setup).
template <typename T>
inline void extract_diagonal(CsrView<T> a, VecView<T> diag)
{
    BSIS_ASSERT(diag.len == a.rows);
    for (index_type r = 0; r < a.rows; ++r) {
        diag[r] = diagonal_at(a, r);
    }
}

}  // namespace bsis
