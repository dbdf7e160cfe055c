#include "lapack/banded_qr.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/first_exception.hpp"

namespace bsis::lapack {

namespace {

/// Computes a Givens rotation (c, s) with [c s; -s c]^T [f; g] = [r; 0].
void make_givens(real_type f, real_type g, real_type& c, real_type& s)
{
    if (g == real_type{0}) {
        c = 1;
        s = 0;
    } else if (std::abs(g) > std::abs(f)) {
        const real_type t = f / g;
        const real_type u = std::sqrt(1 + t * t);
        s = 1 / u;
        c = s * t;
    } else {
        const real_type t = g / f;
        const real_type u = std::sqrt(1 + t * t);
        c = 1 / u;
        s = c * t;
    }
}

}  // namespace

void gbqr_solve(BandedView<real_type> a, VecView<real_type> b)
{
    const index_type n = a.n;
    BSIS_ENSURE_DIMS(b.len == n, "rhs length must equal matrix order");
    const index_type kuw = a.kl + a.ku;  // upper bandwidth of R

    // Eliminate the sub-diagonals column by column, bottom-up. When entry
    // (i, j) is annihilated both rows involved have nonzeros confined to
    // columns j .. j + kl + ku (classical banded-QR fill result), so the
    // rotation is applied over exactly that range.
    for (index_type j = 0; j < n; ++j) {
        const index_type ihi = std::min(j + a.kl, n - 1);
        for (index_type i = ihi; i > j; --i) {
            if (a(i, j) == real_type{0}) {
                continue;
            }
            real_type c;
            real_type s;
            make_givens(a(i - 1, j), a(i, j), c, s);
            const index_type chi = std::min(j + kuw, n - 1);
            for (index_type col = j; col <= chi; ++col) {
                const real_type top = a(i - 1, col);
                const real_type bot = a(i, col);
                a(i - 1, col) = c * top + s * bot;
                a(i, col) = -s * top + c * bot;
            }
            const real_type btop = b[i - 1];
            const real_type bbot = b[i];
            b[i - 1] = c * btop + s * bbot;
            b[i] = -s * btop + c * bbot;
        }
    }
    // Back substitution with R (upper bandwidth kl + ku).
    for (index_type j = n - 1; j >= 0; --j) {
        if (a(j, j) == real_type{0}) {
            throw NumericalBreakdown(
                "gbqr_solve", "zero diagonal in R at " + std::to_string(j));
        }
        b[j] /= a(j, j);
        const index_type ilo = std::max(j - kuw, index_type{0});
        for (index_type i = ilo; i < j; ++i) {
            b[i] -= a(i, j) * b[j];
        }
    }
}

double gbqr_flops(index_type n, index_type kl, index_type ku)
{
    // Per column: up to kl rotations, each applied to ~(kl + ku + 1) column
    // pairs (6 flops per pair) plus the rhs pair, plus rotation setup.
    const double rotations = static_cast<double>(n) * kl;
    const double per_rotation = 6.0 * (static_cast<double>(kl) + ku + 2) + 8;
    const double back_sub =
        static_cast<double>(n) * (2.0 * (static_cast<double>(kl) + ku) + 1);
    return rotations * per_rotation + back_sub;
}

void batch_gbqr_solve(BatchBanded<real_type>& a, BatchVector<real_type>& x)
{
    BSIS_ENSURE_DIMS(a.num_batch() == x.num_batch(),
                     "batch counts must match");
    BSIS_ENSURE_DIMS(a.n() == x.len(), "rhs length must equal matrix order");
    const size_type nbatch = a.num_batch();
    FirstException failure;
#pragma omp parallel for schedule(dynamic)
    for (size_type b = 0; b < nbatch; ++b) {
        failure.run([&] { gbqr_solve(a.entry(b), x.entry(b)); });
    }
    failure.rethrow();
}

}  // namespace bsis::lapack
