// Batched preconditioned Conjugate Gradient kernel.
//
// For symmetric positive definite batch entries. Not the paper's headline
// solver (the collision matrices are nonsymmetric) but part of the
// "several preconditionable iterative solvers" the library provides
// (Section IV-B) and the reference solver for SPD test problems.
#pragma once

#include "blas/kernels.hpp"
#include "core/failure.hpp"
#include "core/pipelined.hpp"
#include "core/residual.hpp"
#include "core/workspace.hpp"
#include "obs/convergence.hpp"
#include "obs/telemetry.hpp"
#include "util/types.hpp"

namespace bsis {

/// Scratch vectors: r, z, p, q.
inline constexpr int cg_work_vectors = 4;

/// Solves A x = b with preconditioned CG. `history` records the residual
/// norm at the top of every iteration (same contract as
/// `bicgstab_kernel`).
///
/// `Pipelined` selects the pipelined recurrences (core/pipelined.hpp): one
/// dot3_nrm2 reduction sweep per iteration, with the r.z dot folded into
/// the preconditioner sweep via Prec::apply_dot. alpha and beta are built
/// from the same dot values in both variants, so the iterates are
/// bit-identical and only the stop decisions (recurrence norm vs measured
/// norm) may differ by one iteration.
template <bool Pipelined = false, typename MatrixView, typename Prec,
          typename Stop>
EntryResult cg_kernel(const MatrixView& a, ConstVecView<real_type> b,
                      VecView<real_type> x, const Prec& prec,
                      const Stop& stop, int max_iters, Workspace& ws,
                      int work_offset = 0, obs::HistorySink history = {})
{
    auto r = ws.slot(work_offset + 0);
    auto z = ws.slot(work_offset + 1);
    auto p = ws.slot(work_offset + 2);
    auto q = ws.slot(work_offset + 3);

    const real_type b_norm = blas::nrm2(b);

    // z = M^-1 r and r . z: one fused sweep on the pipelined kernel, a
    // preconditioner sweep plus a dot on the classic one.
    const auto precondition = [&] {
        if constexpr (Pipelined) {
            return obs::traced(obs::Phase::precond, "precond_apply", [&] {
                return prec.apply_dot(ConstVecView<real_type>(r), z);
            });
        } else {
            obs::traced(obs::Phase::precond, "precond_apply",
                        [&] { prec.apply(ConstVecView<real_type>(r), z); });
            return obs::traced(obs::Phase::reduction, "reduction", [&] {
                return blas::dot(ConstVecView<real_type>(r),
                                 ConstVecView<real_type>(z));
            });
        }
    };

    real_type r_norm = residual(a, b, ConstVecView<real_type>(x), r);
    real_type rz = precondition();
    obs::traced(obs::Phase::update, "update",
                [&] { blas::copy(ConstVecView<real_type>(z), p); });
    const real_type r0 = r_norm;

    for (int iter = 0;; ++iter) {
        history.record(iter, r_norm);
        if (const auto exit =
                loop_exit(stop, iter, max_iters, r_norm, b_norm, r0)) {
            return *exit;
        }
        if (rz == real_type{0}) {
            // The search direction collapsed: alpha = rz / pq undefined.
            return {iter, r_norm, false, FailureClass::breakdown_rho};
        }
        obs::traced(obs::Phase::spmv, "spmv",
                    [&] { spmv(a, ConstVecView<real_type>(p), q); });
        // p.q; the pipelined sweep also yields q.q, q.r and the measured
        // ||r||: everything the residual-norm recurrence needs.
        real_type pq;
        real_type qq;
        real_type qr;
        real_type r_meas;
        obs::traced(obs::Phase::reduction, "reduction", [&] {
            if constexpr (Pipelined) {
                blas::dot3_nrm2(ConstVecView<real_type>(q),
                                ConstVecView<real_type>(p),
                                ConstVecView<real_type>(r), pq, qq, qr,
                                r_meas);
            } else {
                pq = blas::dot(ConstVecView<real_type>(p),
                               ConstVecView<real_type>(q));
            }
        });
        if (pq <= real_type{0}) {
            // Indefinite matrix: CG is not applicable.
            return {iter, r_norm, false, FailureClass::breakdown_rho};
        }
        const real_type alpha = rz / pq;
        obs::traced(obs::Phase::update, "update", [&] {
            blas::axpy(alpha, ConstVecView<real_type>(p), x);
        });
        // r -= alpha * q, fused with ||r|| on the classic kernel (one sweep
        // instead of two). The pipelined norm is ||r - alpha q||^2
        // re-anchored at this iteration's measured ||r||, so recurrence
        // rounding cannot compound.
        if constexpr (Pipelined) {
            obs::traced(obs::Phase::update, "update", [&] {
                blas::axpy(-alpha, ConstVecView<real_type>(q), r);
            });
            r_norm = recurrence_norm(r_meas * r_meas - 2 * alpha * qr +
                                     alpha * alpha * qq);
        } else {
            r_norm = obs::traced(obs::Phase::update, "update", [&] {
                return blas::axpy_nrm2(-alpha, ConstVecView<real_type>(q),
                                       r);
            });
        }
        const real_type rz_new = precondition();
        const real_type beta = rz_new / rz;
        obs::traced(obs::Phase::update, "update", [&] {
            blas::axpby(real_type{1}, ConstVecView<real_type>(z), beta, p);
        });
        rz = rz_new;
    }
}

}  // namespace bsis
