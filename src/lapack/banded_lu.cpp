#include "lapack/banded_lu.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.hpp"
#include "util/first_exception.hpp"

namespace bsis::lapack {

void gbtrf(BandedView<real_type> a, std::vector<index_type>& ipiv)
{
    const index_type n = a.n;
    const index_type kl = a.kl;
    // Fill-in from pivoting widens the upper bandwidth to kl + ku.
    const index_type kuw = a.kl + a.ku;
    ipiv.assign(static_cast<std::size_t>(n), 0);

    for (index_type j = 0; j < n; ++j) {
        const index_type km = std::min(kl, n - 1 - j);
        // Partial pivoting: largest magnitude in column j, rows j..j+km.
        index_type piv = j;
        real_type piv_mag = std::abs(a(j, j));
        for (index_type i = j + 1; i <= j + km; ++i) {
            const real_type mag = std::abs(a(i, j));
            if (mag > piv_mag) {
                piv_mag = mag;
                piv = i;
            }
        }
        ipiv[j] = piv;
        if (piv_mag == real_type{0}) {
            throw NumericalBreakdown(
                "gbtrf", "zero pivot at column " + std::to_string(j));
        }
        const index_type jhi = std::min(j + kuw, n - 1);
        if (piv != j) {
            for (index_type c = j; c <= jhi; ++c) {
                std::swap(a(j, c), a(piv, c));
            }
        }
        const real_type inv_pivot = real_type{1} / a(j, j);
        for (index_type i = j + 1; i <= j + km; ++i) {
            const real_type l = a(i, j) * inv_pivot;
            a(i, j) = l;
            for (index_type c = j + 1; c <= jhi; ++c) {
                a(i, c) -= l * a(j, c);
            }
        }
    }
}

void gbtrs(const BandedView<real_type>& a,
           const std::vector<index_type>& ipiv, VecView<real_type> b)
{
    const index_type n = a.n;
    BSIS_ENSURE_DIMS(b.len == n, "rhs length must equal matrix order");
    BSIS_ENSURE_DIMS(static_cast<index_type>(ipiv.size()) == n,
                     "ipiv length must equal matrix order");
    const index_type kuw = a.kl + a.ku;

    // Forward: apply P and L (unit lower triangular, multipliers stored in
    // the band below the diagonal).
    for (index_type j = 0; j < n; ++j) {
        if (ipiv[j] != j) {
            std::swap(b[j], b[ipiv[j]]);
        }
        const index_type ihi = std::min(j + a.kl, n - 1);
        for (index_type i = j + 1; i <= ihi; ++i) {
            b[i] -= a(i, j) * b[j];
        }
    }
    // Backward: solve U x = y, U has upper bandwidth kl + ku.
    for (index_type j = n - 1; j >= 0; --j) {
        b[j] /= a(j, j);
        const index_type ilo = std::max(j - kuw, index_type{0});
        for (index_type i = ilo; i < j; ++i) {
            b[i] -= a(i, j) * b[j];
        }
    }
}

void gbsv(BandedView<real_type> a, VecView<real_type> b)
{
    std::vector<index_type> ipiv;
    gbtrf(a, ipiv);
    gbtrs(a, ipiv, b);
}

double gbsv_flops(index_type n, index_type kl, index_type ku)
{
    // gbtrf: per column, km <= kl multiplier divisions and an outer product
    // over km x (kl + ku) entries; gbtrs: triangular solves over the bands.
    const double dn = n;
    const double dkl = kl;
    const double kuw = static_cast<double>(kl) + ku;
    const double factor = dn * (dkl + 2.0 * dkl * kuw);
    const double solve = dn * (2.0 * dkl + 2.0 * kuw + 1.0);
    return factor + solve;
}

void batch_gbsv(BatchBanded<real_type>& a, BatchVector<real_type>& x)
{
    BSIS_ENSURE_DIMS(a.num_batch() == x.num_batch(),
                     "batch counts must match");
    BSIS_ENSURE_DIMS(a.n() == x.len(), "rhs length must equal matrix order");
    const size_type nbatch = a.num_batch();
    FirstException failure;
#pragma omp parallel for schedule(dynamic)
    for (size_type b = 0; b < nbatch; ++b) {
        failure.run([&] { gbsv(a.entry(b), x.entry(b)); });
    }
    failure.rethrow();
}

}  // namespace bsis::lapack
