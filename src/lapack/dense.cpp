#include "lapack/dense.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace bsis::lapack {

void getrf(DenseView<real_type> a, std::vector<index_type>& ipiv)
{
    BSIS_ENSURE_DIMS(a.rows == a.cols, "LU requires a square matrix");
    const index_type n = a.rows;
    ipiv.assign(static_cast<std::size_t>(n), 0);
    for (index_type j = 0; j < n; ++j) {
        index_type piv = j;
        real_type piv_mag = std::abs(a(j, j));
        for (index_type i = j + 1; i < n; ++i) {
            const real_type mag = std::abs(a(i, j));
            if (mag > piv_mag) {
                piv_mag = mag;
                piv = i;
            }
        }
        ipiv[j] = piv;
        if (piv_mag == real_type{0}) {
            throw NumericalBreakdown(
                "getrf", "zero pivot at column " + std::to_string(j));
        }
        if (piv != j) {
            for (index_type c = 0; c < n; ++c) {
                std::swap(a(j, c), a(piv, c));
            }
        }
        const real_type inv_pivot = real_type{1} / a(j, j);
        for (index_type i = j + 1; i < n; ++i) {
            const real_type l = a(i, j) * inv_pivot;
            a(i, j) = l;
            for (index_type c = j + 1; c < n; ++c) {
                a(i, c) -= l * a(j, c);
            }
        }
    }
}

void getrs(ConstDenseView<real_type> a, const std::vector<index_type>& ipiv,
           VecView<real_type> b)
{
    const index_type n = a.rows;
    BSIS_ENSURE_DIMS(b.len == n, "rhs length must equal matrix order");
    for (index_type j = 0; j < n; ++j) {
        if (ipiv[j] != j) {
            std::swap(b[j], b[ipiv[j]]);
        }
        for (index_type i = j + 1; i < n; ++i) {
            b[i] -= a(i, j) * b[j];
        }
    }
    for (index_type j = n - 1; j >= 0; --j) {
        b[j] /= a(j, j);
        for (index_type i = 0; i < j; ++i) {
            b[i] -= a(i, j) * b[j];
        }
    }
}

void getrs_transpose(ConstDenseView<real_type> a,
                     const std::vector<index_type>& ipiv,
                     VecView<real_type> b)
{
    const index_type n = a.rows;
    BSIS_ENSURE_DIMS(b.len == n, "rhs length must equal matrix order");
    // A^T = (P^T L U)^T = U^T L^T P, so solve U^T y = b, then L^T z = y,
    // then apply the pivots in reverse.
    for (index_type j = 0; j < n; ++j) {
        for (index_type i = 0; i < j; ++i) {
            b[j] -= a(i, j) * b[i];
        }
        b[j] /= a(j, j);
    }
    for (index_type j = n - 1; j >= 0; --j) {
        for (index_type i = j + 1; i < n; ++i) {
            b[j] -= a(i, j) * b[i];
        }
    }
    for (index_type j = n - 1; j >= 0; --j) {
        if (ipiv[j] != j) {
            std::swap(b[j], b[ipiv[j]]);
        }
    }
}

void gesv(DenseView<real_type> a, VecView<real_type> b)
{
    std::vector<index_type> ipiv;
    getrf(a, ipiv);
    getrs(ConstDenseView<real_type>(a), ipiv, b);
}

real_type norm_1(ConstDenseView<real_type> a)
{
    real_type best = 0;
    for (index_type c = 0; c < a.cols; ++c) {
        real_type colsum = 0;
        for (index_type r = 0; r < a.rows; ++r) {
            colsum += std::abs(a(r, c));
        }
        best = std::max(best, colsum);
    }
    return best;
}

real_type estimate_condition_1(ConstDenseView<real_type> a)
{
    BSIS_ENSURE_DIMS(a.rows == a.cols, "condition estimate needs square A");
    const index_type n = a.rows;
    const real_type a_norm = norm_1(a);

    // Factorize a copy once; Hager iterations then only do solves.
    std::vector<real_type> lu(static_cast<std::size_t>(n) * n);
    std::copy(a.values, a.values + static_cast<std::size_t>(n) * n,
              lu.begin());
    DenseView<real_type> lu_view{lu.data(), n, n};
    std::vector<index_type> ipiv;
    getrf(lu_view, ipiv);
    const ConstDenseView<real_type> f(lu_view);

    // Hager's method estimates ||A^-1||_1 by maximizing ||A^-1 x||_1 over
    // the unit 1-norm ball.
    std::vector<real_type> x(static_cast<std::size_t>(n),
                             real_type{1} / n);
    real_type estimate = 0;
    for (int iter = 0; iter < 5; ++iter) {
        VecView<real_type> xv{x.data(), n};
        getrs(f, ipiv, xv);  // y = A^-1 x
        real_type y_norm = 0;
        for (index_type i = 0; i < n; ++i) {
            y_norm += std::abs(x[i]);
        }
        estimate = std::max(estimate, y_norm);
        // xi = sign(y); z = A^-T xi
        for (index_type i = 0; i < n; ++i) {
            x[i] = x[i] >= 0 ? 1 : -1;
        }
        getrs_transpose(f, ipiv, xv);
        index_type jmax = 0;
        real_type zmax = 0;
        for (index_type i = 0; i < n; ++i) {
            if (std::abs(x[i]) > zmax) {
                zmax = std::abs(x[i]);
                jmax = i;
            }
        }
        if (zmax <= estimate) {
            break;
        }
        std::fill(x.begin(), x.end(), real_type{0});
        x[jmax] = 1;
    }
    return a_norm * estimate;
}

}  // namespace bsis::lapack
