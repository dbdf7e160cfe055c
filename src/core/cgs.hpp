// Batched Conjugate Gradient Squared kernel (Sonneveld 1989).
//
// The transpose-free sibling of BiCGStab: same Krylov machinery, squared
// contraction, often faster but rougher convergence. Part of the "several
// preconditionable iterative solvers" family of Section IV-B; the
// solver-comparison example shows why the paper settled on BiCGStab for
// the collision matrices.
#pragma once

#include "blas/kernels.hpp"
#include "core/failure.hpp"
#include "core/residual.hpp"
#include "core/workspace.hpp"
#include "obs/convergence.hpp"
#include "obs/telemetry.hpp"
#include "util/types.hpp"

namespace bsis {

/// Scratch vectors: r, r_hat, u, p, q, u_hat, v, t.
inline constexpr int cgs_work_vectors = 8;

/// `history` records the residual norm at the top of every iteration
/// (same contract as `bicgstab_kernel`).
template <typename MatrixView, typename Prec, typename Stop>
EntryResult cgs_kernel(const MatrixView& a, ConstVecView<real_type> b,
                       VecView<real_type> x, const Prec& prec,
                       const Stop& stop, int max_iters, Workspace& ws,
                       int work_offset = 0, obs::HistorySink history = {})
{
    auto r = ws.slot(work_offset + 0);
    auto r_hat = ws.slot(work_offset + 1);
    auto u = ws.slot(work_offset + 2);
    auto p = ws.slot(work_offset + 3);
    auto q = ws.slot(work_offset + 4);
    auto u_hat = ws.slot(work_offset + 5);
    auto v = ws.slot(work_offset + 6);
    auto t = ws.slot(work_offset + 7);

    const real_type b_norm = blas::nrm2(b);

    real_type r_norm = residual(a, b, ConstVecView<real_type>(x), r);
    obs::traced(obs::Phase::update, "update",
                [&] { blas::copy(ConstVecView<real_type>(r), r_hat); });
    const real_type r0 = r_norm;
    real_type rho_old = 1;

    for (int iter = 0;; ++iter) {
        history.record(iter, r_norm);
        if (const auto exit =
                loop_exit(stop, iter, max_iters, r_norm, b_norm, r0)) {
            return *exit;
        }
        const real_type rho = obs::traced(obs::Phase::reduction, "reduction", [&] {
            return blas::dot(ConstVecView<real_type>(r_hat),
                             ConstVecView<real_type>(r));
        });
        if (rho == real_type{0}) {
            return {iter, r_norm, false, FailureClass::breakdown_rho};
        }
        if (iter == 0) {
            obs::traced(obs::Phase::update, "update", [&] {
                blas::copy(ConstVecView<real_type>(r), u);
                blas::copy(ConstVecView<real_type>(u), p);
            });
        } else {
            const real_type beta = rho / rho_old;
            obs::traced(obs::Phase::update, "update", [&] {
                // u = r + beta q in one sweep (was copy + axpy).
                blas::zaxpby(real_type{1}, ConstVecView<real_type>(r), beta,
                             ConstVecView<real_type>(q), u);
                // p = u + beta q + beta^2 p in one sweep (was two axpbys).
                blas::axpbypcz(real_type{1}, ConstVecView<real_type>(u), beta,
                               ConstVecView<real_type>(q), beta * beta, p);
            });
        }
        obs::traced(obs::Phase::precond, "precond_apply",
                    [&] { prec.apply(ConstVecView<real_type>(p), u_hat); });
        obs::traced(obs::Phase::spmv, "spmv",
                    [&] { spmv(a, ConstVecView<real_type>(u_hat), v); });
        const real_type sigma = obs::traced(obs::Phase::reduction, "reduction", [&] {
            return blas::dot(ConstVecView<real_type>(r_hat),
                             ConstVecView<real_type>(v));
        });
        if (sigma == real_type{0}) {
            // alpha = rho / sigma undefined: rho-side breakdown.
            return {iter, r_norm, false, FailureClass::breakdown_rho};
        }
        const real_type alpha = rho / sigma;
        obs::traced(obs::Phase::update, "update", [&] {
            // q = u - alpha v in one sweep (was copy + axpy).
            blas::zaxpby(real_type{1}, ConstVecView<real_type>(u), -alpha,
                         ConstVecView<real_type>(v), q);
            // u_hat = M^-1 (u + q); x += alpha u_hat; r -= alpha A u_hat
            blas::zaxpby(real_type{1}, ConstVecView<real_type>(u),
                         real_type{1}, ConstVecView<real_type>(q), t);
        });
        obs::traced(obs::Phase::precond, "precond_apply",
                    [&] { prec.apply(ConstVecView<real_type>(t), u_hat); });
        obs::traced(obs::Phase::update, "update", [&] {
            blas::axpy(alpha, ConstVecView<real_type>(u_hat), x);
        });
        obs::traced(obs::Phase::spmv, "spmv",
                    [&] { spmv(a, ConstVecView<real_type>(u_hat), t); });
        // r -= alpha * t fused with ||r||.
        r_norm = obs::traced(obs::Phase::update, "update", [&] {
            return blas::axpy_nrm2(-alpha, ConstVecView<real_type>(t), r);
        });
        rho_old = rho;
    }
}

}  // namespace bsis
