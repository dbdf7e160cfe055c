// Batched Chebyshev iteration kernel.
//
// A reduction-free polynomial solver: per iteration it needs NO dot
// products -- on the GPU that removes the block-wide synchronizations that
// dominate the fused Krylov kernels' iteration time, at the price of
// needing a-priori spectral bounds [eig_min, eig_max] of the
// (preconditioned) operator. The bench/solver-comparison paths derive the
// bounds from Gershgorin discs of the Jacobi-scaled matrix.
#pragma once

#include <algorithm>
#include <cmath>

#include "blas/kernels.hpp"
#include "core/failure.hpp"
#include "core/residual.hpp"
#include "core/workspace.hpp"
#include "obs/convergence.hpp"
#include "obs/telemetry.hpp"
#include "util/error.hpp"
#include "util/types.hpp"

namespace bsis {

/// Scratch vectors: r, z, p, q.
inline constexpr int chebyshev_work_vectors = 4;

/// Spectral interval of the preconditioned operator; must satisfy
/// 0 < eig_min <= eig_max (Chebyshev requires a definite real interval).
struct ChebyshevBounds {
    real_type eig_min = 0.5;
    real_type eig_max = 1.5;
};

/// Gershgorin-disc bounds of the (optionally Jacobi-scaled) operator for
/// one matrix view. With `diag_scaled` the interval brackets
/// diag(A)^-1 A: [1 - max_i R_i/|a_ii|, 1 + max_i R_i/|a_ii|]; without it,
/// A itself: [min_i(a_ii - R_i), max_i(a_ii + R_i)]. The lower bound is
/// clamped to `floor` (Chebyshev needs a positive interval; for the
/// diagonally dominant collision matrices the disc bound is already
/// positive). The off-diagonal radius is estimated with an all-ones probe
/// (exact for one-signed off-diagonals, as in these stencils).
template <typename MatrixView>
ChebyshevBounds gershgorin_bounds(const MatrixView& a, Workspace& ws,
                                  int scratch_slot, bool diag_scaled = true,
                                  real_type floor = real_type{0.05})
{
    auto diag = ws.slot(scratch_slot);
    extract_diagonal(a, diag);
    auto ones = ws.slot(scratch_slot + 1);
    auto rowsum = ws.slot(scratch_slot + 2);
    blas::fill(ones, real_type{1});
    spmv(a, ConstVecView<real_type>(ones), rowsum);
    ChebyshevBounds bounds;
    if (diag_scaled) {
        real_type radius = 0;
        for (index_type i = 0; i < diag.len; ++i) {
            BSIS_ENSURE_ARG(diag[i] != real_type{0},
                            "zero diagonal in Gershgorin bound");
            radius = std::max(radius,
                              std::abs((rowsum[i] - diag[i]) / diag[i]));
        }
        bounds.eig_min = std::max(floor, 1 - radius);
        bounds.eig_max = 1 + radius;
        return bounds;
    }
    real_type lo = diag.len > 0 ? diag[0] : real_type{1};
    real_type hi = lo;
    for (index_type i = 0; i < diag.len; ++i) {
        const real_type radius = std::abs(rowsum[i] - diag[i]);
        lo = std::min(lo, diag[i] - radius);
        hi = std::max(hi, diag[i] + radius);
    }
    bounds.eig_min = std::max(floor, lo);
    bounds.eig_max = std::max(bounds.eig_min, hi);
    return bounds;
}

/// Preconditioned Chebyshev iteration; `prec` should be the Jacobi
/// preconditioner matching the bounds' diagonal scaling. `history` records
/// the residual norm at the top of every iteration (same contract as
/// `bicgstab_kernel`).
template <typename MatrixView, typename Prec, typename Stop>
EntryResult chebyshev_kernel(const MatrixView& a, ConstVecView<real_type> b,
                             VecView<real_type> x, const Prec& prec,
                             const Stop& stop, int max_iters,
                             const ChebyshevBounds& bounds, Workspace& ws,
                             int work_offset = 0,
                             obs::HistorySink history = {})
{
    BSIS_ENSURE_ARG(bounds.eig_min > 0 &&
                        bounds.eig_max >= bounds.eig_min,
                    "Chebyshev needs 0 < eig_min <= eig_max");
    auto r = ws.slot(work_offset + 0);
    auto z = ws.slot(work_offset + 1);
    auto p = ws.slot(work_offset + 2);
    auto q = ws.slot(work_offset + 3);

    const real_type theta = (bounds.eig_max + bounds.eig_min) / 2;
    const real_type delta = (bounds.eig_max - bounds.eig_min) / 2;
    const real_type b_norm = blas::nrm2(b);

    real_type r_norm = residual(a, b, ConstVecView<real_type>(x), r);
    const real_type r0 = r_norm;

    real_type alpha = 0;
    for (int iter = 0;; ++iter) {
        history.record(iter, r_norm);
        if (const auto exit =
                loop_exit(stop, iter, max_iters, r_norm, b_norm, r0)) {
            return *exit;
        }
        obs::traced(obs::Phase::precond, "precond_apply",
                    [&] { prec.apply(ConstVecView<real_type>(r), z); });
        if (iter == 0) {
            obs::traced(obs::Phase::update, "update",
                        [&] { blas::copy(ConstVecView<real_type>(z), p); });
            alpha = 1 / theta;
        } else {
            const real_type beta =
                iter == 1 ? real_type{0.5} * (delta * alpha) * (delta * alpha)
                          : (delta * alpha / 2) * (delta * alpha / 2);
            alpha = 1 / (theta - beta / alpha);
            obs::traced(obs::Phase::update, "update", [&] {
                blas::axpby(real_type{1}, ConstVecView<real_type>(z), beta,
                            p);
            });
        }
        obs::traced(obs::Phase::update, "update",
                    [&] { blas::axpy(alpha, ConstVecView<real_type>(p), x); });
        obs::traced(obs::Phase::spmv, "spmv",
                    [&] { spmv(a, ConstVecView<real_type>(p), q); });
        obs::traced(obs::Phase::update, "update",
                    [&] { blas::axpy(-alpha, ConstVecView<real_type>(q), r); });
        r_norm = obs::traced(obs::Phase::reduction, "reduction", [&] {
            return blas::nrm2(ConstVecView<real_type>(r));
        });
    }
}

}  // namespace bsis
