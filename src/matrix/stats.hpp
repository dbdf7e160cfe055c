// Matrix statistics supporting Fig. 3 (storage cost) and Fig. 4 (sparsity
// pattern characterization) of the paper.
#pragma once

#include "matrix/batch_csr.hpp"
#include "util/types.hpp"

namespace bsis {

/// Structural and numerical characteristics of one batch of matrices with a
/// shared sparsity pattern.
struct MatrixStats {
    index_type rows = 0;
    index_type nnz = 0;
    index_type min_nnz_per_row = 0;
    index_type max_nnz_per_row = 0;
    double avg_nnz_per_row = 0.0;
    index_type kl = 0;  ///< lower half bandwidth
    index_type ku = 0;  ///< upper half bandwidth
    bool pattern_symmetric = false;
    bool numerically_symmetric = false;
    /// min over rows of |a_ii| / sum_{j != i} |a_ij| for batch entry 0;
    /// > 1 means strictly diagonally dominant.
    double diagonal_dominance = 0.0;
};

MatrixStats compute_stats(const BatchCsr<real_type>& batch);

/// Storage-cost model of Fig. 3: bytes needed to store `num_batch` matrices
/// of the given shared pattern in each format. The SELL-P figure uses the
/// uniform-pattern model (every slice padded to `max_nnz_per_row`), an
/// upper bound on the actual per-slice-padded allocation; slices made
/// entirely of short boundary rows come in under it
/// (bench_fig3_storage cross-checks the bound against `to_sellp`).
struct StorageCost {
    size_type dense_bytes = 0;
    size_type csr_bytes = 0;
    size_type ell_bytes = 0;
    size_type sellp_bytes = 0;
};

StorageCost storage_cost(index_type rows, index_type nnz,
                         index_type max_nnz_per_row, size_type num_batch,
                         size_type value_bytes = sizeof(real_type),
                         size_type index_bytes = sizeof(index_type),
                         index_type slice_size = 32);

}  // namespace bsis
