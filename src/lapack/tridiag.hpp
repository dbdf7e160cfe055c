// Batched tridiagonal and pentadiagonal direct solvers.
//
// Section III of the paper surveys the batched direct solvers that existed
// before its batched iterative approach: cuSPARSE's gtsv2StridedBatch
// (cyclic-reduction variants), cuThomasBatch (one thread per system,
// interleaved storage), and pentadiagonal solvers [6], [12], [17]. These
// are the baselines the paper positions itself against, so the library
// provides them:
//   * thomas_solve        -- the classic O(n) serial recurrence (the
//                            per-thread algorithm of cuThomasBatch),
//   * cyclic_reduction_solve -- the fine-grain parallel O(n log n)
//                            scheme GPU vendors use inside gtsv2,
//   * pentadiag_solve     -- banded elimination with two off-diagonals.
// All three assume the diagonally dominant systems these applications
// produce (no pivoting, like their GPU counterparts).
#pragma once

#include <vector>

#include "blas/batch_vector.hpp"
#include "util/types.hpp"

namespace bsis::lapack {

/// One tridiagonal system: sub/main/super diagonals of length n (sub[0]
/// and sup[n-1] are unused).
template <typename T>
struct TridiagView {
    index_type n = 0;
    T* sub = nullptr;
    T* diag = nullptr;
    T* sup = nullptr;
};

/// Batch of tridiagonal systems (entry-major storage of each diagonal).
class BatchTridiag {
public:
    BatchTridiag() = default;
    BatchTridiag(size_type num_batch, index_type n);

    size_type num_batch() const { return num_batch_; }
    index_type n() const { return n_; }

    TridiagView<real_type> entry(size_type b);

private:
    size_type num_batch_ = 0;
    index_type n_ = 0;
    std::vector<real_type> sub_;
    std::vector<real_type> diag_;
    std::vector<real_type> sup_;
};

/// Thomas algorithm (no pivoting); destroys the matrix, overwrites b with
/// the solution. Throws NumericalBreakdown on a zero pivot.
void thomas_solve(TridiagView<real_type> a, VecView<real_type> b);

/// Cyclic reduction (the GPU-parallel scheme); does not modify the matrix,
/// overwrites b with the solution. Handles arbitrary n (not only powers of
/// two). Throws NumericalBreakdown on a zero reduced pivot.
void cyclic_reduction_solve(const TridiagView<const real_type>& a,
                            VecView<real_type> b);

/// Convenience overload for a mutable view.
void cyclic_reduction_solve(const TridiagView<real_type>& a,
                            VecView<real_type> b);

/// Batched drivers (OpenMP over systems).
void batch_thomas(BatchTridiag& a, BatchVector<real_type>& x);
void batch_cyclic_reduction(BatchTridiag& a, BatchVector<real_type>& x);

/// One pentadiagonal system: five diagonals of length n (out-of-range
/// leading/trailing entries unused).
template <typename T>
struct PentadiagView {
    index_type n = 0;
    T* sub2 = nullptr;
    T* sub1 = nullptr;
    T* diag = nullptr;
    T* sup1 = nullptr;
    T* sup2 = nullptr;
};

class BatchPentadiag {
public:
    BatchPentadiag() = default;
    BatchPentadiag(size_type num_batch, index_type n);

    size_type num_batch() const { return num_batch_; }
    index_type n() const { return n_; }

    PentadiagView<real_type> entry(size_type b);

private:
    size_type num_batch_ = 0;
    index_type n_ = 0;
    std::vector<real_type> bands_[5];
};

/// Pentadiagonal elimination without pivoting (the cuPentBatch-style
/// algorithm [12]); destroys the matrix, overwrites b with the solution.
void pentadiag_solve(PentadiagView<real_type> a, VecView<real_type> b);

/// Flop counts for the device cost models.
double thomas_flops(index_type n);
double cyclic_reduction_flops(index_type n);
double pentadiag_flops(index_type n);

}  // namespace bsis::lapack
