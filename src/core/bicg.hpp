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

#include "blas/kernels.hpp"
#include "core/failure.hpp"
#include "core/residual.hpp"
#include "core/workspace.hpp"
#include "obs/convergence.hpp"
#include "obs/telemetry.hpp"
#include "util/types.hpp"

namespace bsis {

/// Scratch vectors: r, r_hat, z, z_hat, p, p_hat, q, q_hat.
inline constexpr int bicg_work_vectors = 8;

/// `history` records the residual norm at the top of every iteration
/// (same contract as `bicgstab_kernel`).
template <typename MatrixView, typename Prec, typename Stop>
EntryResult bicg_kernel(const MatrixView& a, ConstVecView<real_type> b,
                        VecView<real_type> x, const Prec& prec,
                        const Stop& stop, int max_iters, Workspace& ws,
                        int work_offset = 0, obs::HistorySink history = {})
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

    real_type r_norm = residual(a, b, ConstVecView<real_type>(x), r);
    obs::traced(obs::Phase::update, "update",
                [&] { blas::copy(ConstVecView<real_type>(r), r_hat); });
    const real_type r0 = r_norm;

    obs::traced(obs::Phase::precond, "precond_apply", [&] {
        prec.apply(ConstVecView<real_type>(r), z);
        prec.apply(ConstVecView<real_type>(r_hat), z_hat);  // M symmetric
    });
    obs::traced(obs::Phase::update, "update", [&] {
        blas::copy(ConstVecView<real_type>(z), p);
        blas::copy(ConstVecView<real_type>(z_hat), p_hat);
    });
    real_type rho = obs::traced(obs::Phase::reduction, "reduction", [&] {
        return blas::dot(ConstVecView<real_type>(z),
                         ConstVecView<real_type>(r_hat));
    });

    for (int iter = 0;; ++iter) {
        history.record(iter, r_norm);
        if (const auto exit =
                loop_exit(stop, iter, max_iters, r_norm, b_norm, r0)) {
            return *exit;
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
    }
}

}  // namespace bsis
