#include "matrix/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "matrix/conversions.hpp"

namespace bsis {

MatrixStats compute_stats(const BatchCsr<real_type>& batch)
{
    MatrixStats stats;
    stats.rows = batch.rows();
    stats.nnz = batch.nnz_per_entry();
    const auto& ptrs = batch.row_ptrs();
    const auto& cols = batch.col_idxs();
    stats.min_nnz_per_row = std::numeric_limits<index_type>::max();
    for (index_type r = 0; r < stats.rows; ++r) {
        const index_type cnt = ptrs[r + 1] - ptrs[r];
        stats.min_nnz_per_row = std::min(stats.min_nnz_per_row, cnt);
        stats.max_nnz_per_row = std::max(stats.max_nnz_per_row, cnt);
    }
    stats.avg_nnz_per_row =
        stats.rows == 0 ? 0.0
                        : static_cast<double>(stats.nnz) / stats.rows;
    auto [kl, ku] = bandwidths(batch);
    stats.kl = kl;
    stats.ku = ku;

    // Pattern symmetry: (r, c) present iff (c, r) present. Column indices
    // are sorted within rows, so binary search works.
    const auto has_entry = [&](index_type r, index_type c) {
        const auto begin = cols.begin() + ptrs[r];
        const auto end = cols.begin() + ptrs[r + 1];
        return std::binary_search(begin, end, c);
    };
    const auto value_at = [&](size_type b, index_type r, index_type c) {
        const auto begin = cols.begin() + ptrs[r];
        const auto end = cols.begin() + ptrs[r + 1];
        const auto it = std::lower_bound(begin, end, c);
        if (it == end || *it != c) {
            return real_type{0};
        }
        return batch.values(b)[it - cols.begin()];
    };
    stats.pattern_symmetric = true;
    stats.numerically_symmetric = batch.num_batch() > 0;
    for (index_type r = 0; r < stats.rows && stats.pattern_symmetric; ++r) {
        for (index_type p = ptrs[r]; p < ptrs[r + 1]; ++p) {
            if (!has_entry(cols[p], r)) {
                stats.pattern_symmetric = false;
                stats.numerically_symmetric = false;
                break;
            }
        }
    }
    if (stats.pattern_symmetric && batch.num_batch() > 0) {
        const real_type tol = 1e-12;
        for (index_type r = 0;
             r < stats.rows && stats.numerically_symmetric; ++r) {
            for (index_type p = ptrs[r]; p < ptrs[r + 1]; ++p) {
                const real_type a_rc = batch.values(0)[p];
                const real_type a_cr = value_at(0, cols[p], r);
                const real_type scale =
                    std::max({std::abs(a_rc), std::abs(a_cr), real_type{1}});
                if (std::abs(a_rc - a_cr) > tol * scale) {
                    stats.numerically_symmetric = false;
                    break;
                }
            }
        }
    }

    if (batch.num_batch() > 0) {
        double min_dominance = std::numeric_limits<double>::infinity();
        const real_type* vals = batch.values(0);
        for (index_type r = 0; r < stats.rows; ++r) {
            double diag = 0.0;
            double off = 0.0;
            for (index_type p = ptrs[r]; p < ptrs[r + 1]; ++p) {
                if (cols[p] == r) {
                    diag = std::abs(vals[p]);
                } else {
                    off += std::abs(vals[p]);
                }
            }
            if (off > 0.0) {
                min_dominance = std::min(min_dominance, diag / off);
            }
        }
        stats.diagonal_dominance = min_dominance;
    }
    return stats;
}

StorageCost storage_cost(index_type rows, index_type nnz,
                         index_type max_nnz_per_row, size_type num_batch,
                         size_type value_bytes, size_type index_bytes,
                         index_type slice_size)
{
    StorageCost cost;
    cost.dense_bytes = num_batch * static_cast<size_type>(rows) * rows *
                       value_bytes;
    cost.csr_bytes = num_batch * static_cast<size_type>(nnz) * value_bytes +
                     static_cast<size_type>(rows + 1) * index_bytes +
                     static_cast<size_type>(nnz) * index_bytes;
    const size_type stored =
        static_cast<size_type>(rows) * max_nnz_per_row;
    cost.ell_bytes =
        num_batch * stored * value_bytes + stored * index_bytes;
    // SELL-P, uniform-pattern model: every slice is padded to the global
    // max row length (exact for the XGC stencils), including the partial
    // last slice, plus the shared slice-set prefix array.
    const size_type num_slices =
        (static_cast<size_type>(rows) + slice_size - 1) / slice_size;
    const size_type sellp_stored =
        num_slices * slice_size * max_nnz_per_row;
    cost.sellp_bytes = num_batch * sellp_stored * value_bytes +
                       sellp_stored * index_bytes +
                       (num_slices + 1) * index_bytes;
    return cost;
}

}  // namespace bsis
