// Batched classical BiCG kernel (Fletcher 1976).
//
// The two-sided ancestor of BiCGStab: it iterates a shadow system with
// A^T alongside the primal one, which is why BiCGStab (transpose-free,
// smoother) displaced it in practice -- the solver-comparison example
// makes that trade-off visible on the collision matrices. Requires the
// matrix format to provide spmv_transpose (all bsis formats do) and a
// SYMMETRIC preconditioner (Identity / scalar Jacobi / block Jacobi with
// symmetric blocks), so M^-T = M^-1.
#pragma once

#include <cmath>
#include <vector>

#include "blas/kernels.hpp"
#include "core/workspace.hpp"
#include "obs/telemetry.hpp"
#include "util/types.hpp"

namespace bsis {

/// Scratch vectors: r, r_hat, z, z_hat, p, p_hat, q, q_hat.
inline constexpr int bicg_work_vectors = 8;

/// `history`, when non-null, receives the residual norm at the top of
/// every iteration (same contract as `bicgstab_kernel`).
template <typename MatrixView, typename Prec, typename Stop>
EntryResult bicg_kernel(const MatrixView& a, ConstVecView<real_type> b,
                        VecView<real_type> x, const Prec& prec,
                        const Stop& stop, int max_iters, Workspace& ws,
                        int work_offset = 0,
                        std::vector<real_type>* history = nullptr)
{
    auto r = ws.slot(work_offset + 0);
    auto r_hat = ws.slot(work_offset + 1);
    auto z = ws.slot(work_offset + 2);
    auto z_hat = ws.slot(work_offset + 3);
    auto p = ws.slot(work_offset + 4);
    auto p_hat = ws.slot(work_offset + 5);
    auto q = ws.slot(work_offset + 6);
    auto q_hat = ws.slot(work_offset + 7);

    const real_type b_norm = blas::nrm2(b);

    obs::traced(obs::Phase::spmv, "spmv", [&] { spmv(a, ConstVecView<real_type>(x), r); });
    blas::axpby(real_type{1}, b, real_type{-1}, r);
    blas::copy(ConstVecView<real_type>(r), r_hat);
    real_type r_norm = obs::traced(
        obs::Phase::reduction, "reduction",
        [&] { return blas::nrm2(ConstVecView<real_type>(r)); });
    const real_type r0 = r_norm;

    obs::traced(obs::Phase::precond, "precond_apply", [&] {
        prec.apply(ConstVecView<real_type>(r), z);
        prec.apply(ConstVecView<real_type>(r_hat), z_hat);  // M symmetric
    });
    blas::copy(ConstVecView<real_type>(z), p);
    blas::copy(ConstVecView<real_type>(z_hat), p_hat);
    real_type rho = obs::traced(obs::Phase::reduction, "reduction", [&] {
        return blas::dot(ConstVecView<real_type>(z),
                         ConstVecView<real_type>(r_hat));
    });

    if (history != nullptr) {
        history->clear();
        history->push_back(r_norm);
    }
    for (int iter = 0; iter < max_iters; ++iter) {
        if (stop.done(r_norm, b_norm)) {
            return {iter, r_norm, true, FailureClass::converged};
        }
        if (!std::isfinite(r_norm)) {
            return {iter, r_norm, false, FailureClass::non_finite};
        }
        if (rho == real_type{0}) {
            return {iter, r_norm, false, FailureClass::breakdown_rho};
        }
        obs::traced(obs::Phase::spmv, "spmv", [&] {
            spmv(a, ConstVecView<real_type>(p), q);
            spmv_transpose(a, ConstVecView<real_type>(p_hat), q_hat);
        });
        const real_type pq = obs::traced(obs::Phase::reduction, "reduction", [&] {
            return blas::dot(ConstVecView<real_type>(p_hat),
                             ConstVecView<real_type>(q));
        });
        if (pq == real_type{0}) {
            // alpha = rho / pq undefined: rho-side breakdown.
            return {iter, r_norm, false, FailureClass::breakdown_rho};
        }
        const real_type alpha = rho / pq;
        obs::traced(obs::Phase::update, "update", [&] {
            blas::axpy(alpha, ConstVecView<real_type>(p), x);
        });
        // r -= alpha * q fused with ||r||; shadow residual in a plain axpy.
        r_norm = obs::traced(obs::Phase::update, "update", [&] {
            const real_type rn =
                blas::axpy_nrm2(-alpha, ConstVecView<real_type>(q), r);
            blas::axpy(-alpha, ConstVecView<real_type>(q_hat), r_hat);
            return rn;
        });
        obs::traced(obs::Phase::precond, "precond_apply", [&] {
            prec.apply(ConstVecView<real_type>(r), z);
            prec.apply(ConstVecView<real_type>(r_hat), z_hat);
        });
        const real_type rho_new = obs::traced(obs::Phase::reduction, "reduction", [&] {
            return blas::dot(ConstVecView<real_type>(z),
                             ConstVecView<real_type>(r_hat));
        });
        const real_type beta = rho_new / rho;
        // Primal/shadow direction updates share their scalars: one loop.
        obs::traced(obs::Phase::update, "update", [&] {
            blas::axpby2(real_type{1}, ConstVecView<real_type>(z),
                         ConstVecView<real_type>(z_hat), beta, p, p_hat);
        });
        rho = rho_new;
        if (history != nullptr) {
            history->push_back(r_norm);
        }
    }
    {
        const bool done = stop.done(r_norm, b_norm);
        return {max_iters, r_norm, done,
                classify_exhausted(r_norm, r0, done)};
    }
}

}  // namespace bsis
