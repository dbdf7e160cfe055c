#include "lapack/tridiag.hpp"

#include <cmath>

#include <exception>

#include "util/error.hpp"

namespace bsis::lapack {

BatchTridiag::BatchTridiag(size_type num_batch, index_type n)
    : num_batch_(num_batch), n_(n)
{
    BSIS_ENSURE_ARG(num_batch >= 0 && n >= 1, "bad batch shape");
    const auto total = static_cast<std::size_t>(num_batch) * n;
    sub_.assign(total, 0.0);
    diag_.assign(total, 0.0);
    sup_.assign(total, 0.0);
}

TridiagView<real_type> BatchTridiag::entry(size_type b)
{
    BSIS_ASSERT(b >= 0 && b < num_batch_);
    const auto offset = static_cast<std::size_t>(b) * n_;
    return {n_, sub_.data() + offset, diag_.data() + offset,
            sup_.data() + offset};
}

void thomas_solve(TridiagView<real_type> a, VecView<real_type> b)
{
    const index_type n = a.n;
    BSIS_ENSURE_DIMS(b.len == n, "rhs length must equal system order");
    // Forward sweep: eliminate the sub-diagonal.
    if (a.diag[0] == real_type{0}) {
        throw NumericalBreakdown("thomas_solve", "zero pivot at row 0");
    }
    for (index_type i = 1; i < n; ++i) {
        const real_type w = a.sub[i] / a.diag[i - 1];
        a.diag[i] -= w * a.sup[i - 1];
        b[i] -= w * b[i - 1];
        if (a.diag[i] == real_type{0}) {
            throw NumericalBreakdown(
                "thomas_solve", "zero pivot at row " + std::to_string(i));
        }
    }
    // Back substitution.
    b[n - 1] /= a.diag[n - 1];
    for (index_type i = n - 2; i >= 0; --i) {
        b[i] = (b[i] - a.sup[i] * b[i + 1]) / a.diag[i];
    }
}

namespace {

/// One level of cyclic reduction: eliminates the odd-indexed unknowns,
/// producing the reduced system over the even indices, recurses, then
/// back-substitutes the odd unknowns. Arbitrary n.
void cr_recurse(const std::vector<real_type>& sub,
                const std::vector<real_type>& diag,
                const std::vector<real_type>& sup,
                std::vector<real_type>& rhs, std::vector<real_type>& x)
{
    const auto n = static_cast<index_type>(diag.size());
    if (n == 1) {
        if (diag[0] == real_type{0}) {
            throw NumericalBreakdown("cyclic_reduction_solve",
                                     "zero reduced pivot");
        }
        x[0] = rhs[0] / diag[0];
        return;
    }
    const index_type m = (n + 1) / 2;  // even-indexed unknowns
    std::vector<real_type> rsub(static_cast<std::size_t>(m), 0.0);
    std::vector<real_type> rdiag(static_cast<std::size_t>(m), 0.0);
    std::vector<real_type> rsup(static_cast<std::size_t>(m), 0.0);
    std::vector<real_type> rrhs(static_cast<std::size_t>(m), 0.0);

    for (index_type i = 0; i < m; ++i) {
        const index_type row = 2 * i;
        real_type d = diag[static_cast<std::size_t>(row)];
        real_type r = rhs[static_cast<std::size_t>(row)];
        real_type s = 0;
        real_type p = 0;
        if (row - 1 >= 0) {
            const auto up = static_cast<std::size_t>(row - 1);
            if (diag[up] == real_type{0}) {
                throw NumericalBreakdown("cyclic_reduction_solve",
                                         "zero odd pivot");
            }
            const real_type alpha =
                sub[static_cast<std::size_t>(row)] / diag[up];
            d -= alpha * sup[up];
            r -= alpha * rhs[up];
            s = -alpha * sub[up];  // couples to even index row-2
        }
        if (row + 1 < n) {
            const auto dn = static_cast<std::size_t>(row + 1);
            if (diag[dn] == real_type{0}) {
                throw NumericalBreakdown("cyclic_reduction_solve",
                                         "zero odd pivot");
            }
            const real_type gamma =
                sup[static_cast<std::size_t>(row)] / diag[dn];
            d -= gamma * sub[dn];
            r -= gamma * rhs[dn];
            p = -gamma * sup[dn];  // couples to even index row+2
        }
        rsub[static_cast<std::size_t>(i)] = s;
        rdiag[static_cast<std::size_t>(i)] = d;
        rsup[static_cast<std::size_t>(i)] = p;
        rrhs[static_cast<std::size_t>(i)] = r;
    }

    std::vector<real_type> rx(static_cast<std::size_t>(m), 0.0);
    cr_recurse(rsub, rdiag, rsup, rrhs, rx);

    for (index_type i = 0; i < m; ++i) {
        x[static_cast<std::size_t>(2 * i)] = rx[static_cast<std::size_t>(i)];
    }
    // Back-substitute the odd unknowns.
    for (index_type row = 1; row < n; row += 2) {
        const auto r = static_cast<std::size_t>(row);
        real_type v = rhs[r];
        v -= sub[r] * x[r - 1];
        if (row + 1 < n) {
            v -= sup[r] * x[r + 1];
        }
        x[r] = v / diag[r];
    }
}

}  // namespace

void cyclic_reduction_solve(const TridiagView<const real_type>& a,
                            VecView<real_type> b)
{
    const index_type n = a.n;
    BSIS_ENSURE_DIMS(b.len == n, "rhs length must equal system order");
    std::vector<real_type> sub(a.sub, a.sub + n);
    std::vector<real_type> diag(a.diag, a.diag + n);
    std::vector<real_type> sup(a.sup, a.sup + n);
    std::vector<real_type> rhs(b.begin(), b.end());
    std::vector<real_type> x(static_cast<std::size_t>(n), 0.0);
    cr_recurse(sub, diag, sup, rhs, x);
    for (index_type i = 0; i < n; ++i) {
        b[i] = x[static_cast<std::size_t>(i)];
    }
}

void cyclic_reduction_solve(const TridiagView<real_type>& a,
                            VecView<real_type> b)
{
    cyclic_reduction_solve(
        TridiagView<const real_type>{a.n, a.sub, a.diag, a.sup}, b);
}

void batch_thomas(BatchTridiag& a, BatchVector<real_type>& x)
{
    BSIS_ENSURE_DIMS(a.num_batch() == x.num_batch() && a.n() == x.len(),
                     "batch shape mismatch");
    const size_type nbatch = a.num_batch();
    std::exception_ptr failure;
#pragma omp parallel for schedule(static)
    for (size_type b = 0; b < nbatch; ++b) {
        try {
            thomas_solve(a.entry(b), x.entry(b));
        } catch (...) {
#pragma omp critical(bsis_batch_driver_failure)
            {
                if (!failure) {
                    failure = std::current_exception();
                }
            }
        }
    }
    if (failure) {
        std::rethrow_exception(failure);
    }
}

void batch_cyclic_reduction(BatchTridiag& a, BatchVector<real_type>& x)
{
    BSIS_ENSURE_DIMS(a.num_batch() == x.num_batch() && a.n() == x.len(),
                     "batch shape mismatch");
    const size_type nbatch = a.num_batch();
    std::exception_ptr failure;
#pragma omp parallel for schedule(static)
    for (size_type b = 0; b < nbatch; ++b) {
        try {
            cyclic_reduction_solve(a.entry(b), x.entry(b));
        } catch (...) {
#pragma omp critical(bsis_batch_driver_failure)
            {
                if (!failure) {
                    failure = std::current_exception();
                }
            }
        }
    }
    if (failure) {
        std::rethrow_exception(failure);
    }
}

BatchPentadiag::BatchPentadiag(size_type num_batch, index_type n)
    : num_batch_(num_batch), n_(n)
{
    BSIS_ENSURE_ARG(num_batch >= 0 && n >= 1, "bad batch shape");
    for (auto& band : bands_) {
        band.assign(static_cast<std::size_t>(num_batch) * n, 0.0);
    }
}

PentadiagView<real_type> BatchPentadiag::entry(size_type b)
{
    BSIS_ASSERT(b >= 0 && b < num_batch_);
    const auto offset = static_cast<std::size_t>(b) * n_;
    return {n_,
            bands_[0].data() + offset,
            bands_[1].data() + offset,
            bands_[2].data() + offset,
            bands_[3].data() + offset,
            bands_[4].data() + offset};
}

void pentadiag_solve(PentadiagView<real_type> a, VecView<real_type> b)
{
    const index_type n = a.n;
    BSIS_ENSURE_DIMS(b.len == n, "rhs length must equal system order");
    // Band accessor: A(r, r + k) for k in [-2, 2].
    const auto band = [&](index_type r, int k) -> real_type& {
        switch (k) {
        case -2: return a.sub2[r];
        case -1: return a.sub1[r];
        case 0: return a.diag[r];
        case 1: return a.sup1[r];
        default: return a.sup2[r];
        }
    };
    // Forward elimination (no pivoting): rows i+1 and i+2 lose their
    // entries in column i.
    for (index_type i = 0; i < n; ++i) {
        if (a.diag[i] == real_type{0}) {
            throw NumericalBreakdown(
                "pentadiag_solve", "zero pivot at row " + std::to_string(i));
        }
        for (int down = 1; down <= 2; ++down) {
            const index_type r = i + down;
            if (r >= n) {
                continue;
            }
            const real_type factor = band(r, -down) / a.diag[i];
            if (factor == real_type{0}) {
                continue;
            }
            band(r, -down) = 0;
            // Row i has entries in columns i .. i+2.
            for (int k = 1; k <= 2; ++k) {
                const index_type c = i + k;
                if (c < n && c - r >= -2 && c - r <= 2) {
                    band(r, static_cast<int>(c - r)) -=
                        factor * band(i, k);
                }
            }
            b[r] -= factor * b[i];
        }
    }
    // Back substitution with two super-diagonals.
    for (index_type i = n - 1; i >= 0; --i) {
        real_type v = b[i];
        if (i + 1 < n) {
            v -= a.sup1[i] * b[i + 1];
        }
        if (i + 2 < n) {
            v -= a.sup2[i] * b[i + 2];
        }
        b[i] = v / a.diag[i];
    }
}

double thomas_flops(index_type n)
{
    return 8.0 * n;  // 3 in the sweep + 5 in the back substitution
}

double cyclic_reduction_flops(index_type n)
{
    // ~12 flops per eliminated unknown per level, summed over a halving
    // sequence ~ 12 * 2n, plus the back substitutions.
    return 24.0 * n + 5.0 * n;
}

double pentadiag_flops(index_type n)
{
    return 24.0 * n;
}

}  // namespace bsis::lapack
