// Dense factorizations: LU with partial pivoting (getrf/getrs) and a
// 1-norm condition estimator (Hager/Higham). Used for validating the
// banded solvers, for block-Jacobi preconditioner setup, and for matrix
// characterization (Section II of the paper motivates iterative solvers by
// the low condition numbers of the collision matrices).
#pragma once

#include <vector>

#include "matrix/batch_dense.hpp"
#include "util/types.hpp"

namespace bsis::lapack {

/// In-place dense LU with partial pivoting. Throws NumericalBreakdown on a
/// zero pivot.
void getrf(DenseView<real_type> a, std::vector<index_type>& ipiv);

/// Solves with a getrf factorization; b is overwritten by the solution.
void getrs(ConstDenseView<real_type> a, const std::vector<index_type>& ipiv,
           VecView<real_type> b);

/// Solves transpose(A) x = b with a getrf factorization of A.
void getrs_transpose(ConstDenseView<real_type> a,
                     const std::vector<index_type>& ipiv,
                     VecView<real_type> b);

/// Convenience driver: factorize + solve; destroys `a`.
void gesv(DenseView<real_type> a, VecView<real_type> b);

/// 1-norm of a dense matrix.
real_type norm_1(ConstDenseView<real_type> a);

/// Estimates the 1-norm condition number kappa_1(A) = ||A||_1 ||A^-1||_1
/// using Hager's method on an LU factorization (like LAPACK's gecon).
real_type estimate_condition_1(ConstDenseView<real_type> a);

}  // namespace bsis::lapack
