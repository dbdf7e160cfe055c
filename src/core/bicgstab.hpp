// Batched BiCGStab kernel (paper Algorithm 1).
//
// One invocation solves ONE system of the batch -- the exact work a single
// GPU thread block performs inside the fused solver kernel. The matrix
// format, preconditioner, and stopping criterion are template parameters,
// mirroring the compile-time composition of the paper's Listing 1, so the
// whole solve inlines into one optimized function.
//
// Two kernels are provided. `bicgstab_kernel` (the default path) sweeps
// the vectors with the fused single-pass BLAS kernels, matching the sweep
// structure of the paper's fused GPU kernel: 4 update sweeps and 3
// reduction sweeps per iteration instead of the ~13 sweeps of the naive
// BLAS composition; its `Pipelined` flag selects the pipelined recurrences.
// `bicgstab_kernel_unfused` keeps the one-sweep-per-call composition as
// the reference for the fusion A/B tests and benches.
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

/// Number of scratch vectors the BiCGStab kernel draws from the workspace
/// (r, r_hat, p, p_hat, v, s, s_hat, t), excluding x and the
/// preconditioner's own storage.
inline constexpr int bicgstab_work_vectors = 8;

/// Solves A x = b with preconditioned BiCGStab using the fused single-pass
/// vector kernels. `x` holds the initial guess on entry and the solution
/// on exit. `prec` must already be generated for this system's matrix.
/// Returns the iteration count, the final residual norm, and whether the
/// stopping criterion was met within `max_iters` iterations.
/// `history` records the residual norm at the top of every iteration (the
/// per-system logging of the paper's Listing 1 LogType) -- see the
/// convergence-history benchmark.
///
/// `Pipelined` selects the pipelined recurrences (core/pipelined.hpp): the
/// standalone reductions per iteration drop from three to two (the
/// r_hat.v dot and one dot4 sweep), and rho and the residual norm each
/// bridge a single iteration, so the iterates track the classic kernel's
/// to rounding and stopping decisions agree within one iteration.
template <bool Pipelined = false, typename MatrixView, typename Prec,
          typename Stop>
EntryResult bicgstab_kernel(const MatrixView& a, ConstVecView<real_type> b,
                            VecView<real_type> x, const Prec& prec,
                            const Stop& stop, int max_iters, Workspace& ws,
                            int work_offset = 0,
                            obs::HistorySink history = {})
{
    auto r = ws.slot(work_offset + 0);
    auto r_hat = ws.slot(work_offset + 1);
    auto p = ws.slot(work_offset + 2);
    auto p_hat = ws.slot(work_offset + 3);
    auto v = ws.slot(work_offset + 4);
    auto s = ws.slot(work_offset + 5);
    auto s_hat = ws.slot(work_offset + 6);
    auto t = ws.slot(work_offset + 7);

    const real_type b_norm = blas::nrm2(b);

    // r = b - A x fused with ||r||; with a zero guess this reduces to
    // r = b. The sweep writes over the A x it reads (aliasing is safe:
    // each element is read before it is written). Then r_hat = r and
    // p = v = 0, update sweeps too.
    obs::traced(obs::Phase::spmv, "spmv", [&] { spmv(a, ConstVecView<real_type>(x), r); });
    real_type r_norm = obs::traced(obs::Phase::update, "update", [&] {
        const real_type norm = blas::zaxpby_nrm2(
            real_type{1}, b, real_type{-1}, ConstVecView<real_type>(r), r);
        blas::copy(ConstVecView<real_type>(r), r_hat);
        blas::fill(p, real_type{0});
        blas::fill(v, real_type{0});
        return norm;
    });

    const real_type r0 = r_norm;
    real_type rho_old = 1;
    real_type omega = 1;
    real_type alpha = 1;
    // The pipelined kernel measures only the first rho (r_hat = r here, so
    // this matches the classic kernel's iteration-0 dot bit for bit);
    // every later rho comes from the dot4 recurrence.
    real_type rho = 0;
    if constexpr (Pipelined) {
        rho = obs::traced(obs::Phase::reduction, "reduction", [&] {
            return blas::dot(ConstVecView<real_type>(r),
                             ConstVecView<real_type>(r_hat));
        });
    }

    // x += alpha p_hat: the update of an iteration that ends at s.
    const auto finish_at_s = [&] {
        obs::traced(obs::Phase::update, "update", [&] {
            blas::axpy(alpha, ConstVecView<real_type>(p_hat), x);
        });
    };

    for (int iter = 0;; ++iter) {
        history.record(iter, r_norm);
        if (const auto exit =
                loop_exit(stop, iter, max_iters, r_norm, b_norm, r0)) {
            return *exit;
        }
        if constexpr (!Pipelined) {
            rho = obs::traced(obs::Phase::reduction, "reduction", [&] {
                return blas::dot(ConstVecView<real_type>(r),
                                 ConstVecView<real_type>(r_hat));
            });
        }
        if (rho == real_type{0} || omega == real_type{0}) {
            // Serious breakdown: the Krylov space cannot be extended.
            return {iter, r_norm, false,
                    rho == real_type{0} ? FailureClass::breakdown_rho
                                        : FailureClass::breakdown_omega};
        }
        const real_type beta = (rho / rho_old) * (alpha / omega);
        // p = r + beta * (p - omega * v) in ONE sweep.
        obs::traced(obs::Phase::update, "update", [&] {
            blas::axpbypcz(real_type{1}, ConstVecView<real_type>(r),
                           -beta * omega, ConstVecView<real_type>(v), beta,
                           p);
        });
        obs::traced(obs::Phase::precond, "precond_apply",
                    [&] { prec.apply(ConstVecView<real_type>(p), p_hat); });
        obs::traced(obs::Phase::spmv, "spmv",
                    [&] { spmv(a, ConstVecView<real_type>(p_hat), v); });
        const real_type r_hat_v = obs::traced(obs::Phase::reduction, "reduction", [&] {
            return blas::dot(ConstVecView<real_type>(r_hat),
                             ConstVecView<real_type>(v));
        });
        if (r_hat_v == real_type{0}) {
            // alpha = rho / r_hat.v is undefined: rho-side breakdown.
            return {iter, r_norm, false, FailureClass::breakdown_rho};
        }
        alpha = rho / r_hat_v;
        // s = r - alpha * v fused with ||s|| (measured, anchoring the
        // pipelined residual-norm recurrence below).
        const real_type s_norm = obs::traced(obs::Phase::update, "update", [&] {
            return blas::zaxpby_nrm2(real_type{1},
                                     ConstVecView<real_type>(r), -alpha,
                                     ConstVecView<real_type>(v), s);
        });
        if (stop.done(s_norm, b_norm)) {
            finish_at_s();
            return {iter + 1, s_norm, true, FailureClass::converged};
        }
        obs::traced(obs::Phase::precond, "precond_apply",
                    [&] { prec.apply(ConstVecView<real_type>(s), s_hat); });
        obs::traced(obs::Phase::spmv, "spmv",
                    [&] { spmv(a, ConstVecView<real_type>(s_hat), t); });
        // t.t and t.s in one sweep over t; the pipelined quad reduction
        // adds s.r_hat and t.r_hat for the recurrences (t.t and t.s stay
        // bit-identical to the classic dual dot).
        real_type t_t;
        real_type t_s;
        real_type s_rhat;
        real_type t_rhat;
        obs::traced(obs::Phase::reduction, "reduction", [&] {
            if constexpr (Pipelined) {
                blas::dot4(ConstVecView<real_type>(t),
                           ConstVecView<real_type>(s),
                           ConstVecView<real_type>(r_hat), t_t, t_s, s_rhat,
                           t_rhat);
            } else {
                blas::dot2(ConstVecView<real_type>(t),
                           ConstVecView<real_type>(t),
                           ConstVecView<real_type>(s), t_t, t_s);
            }
        });
        if (t_t == real_type{0}) {
            finish_at_s();
            r_norm = s_norm;
            const bool done = stop.done(r_norm, b_norm);
            return {iter + 1, r_norm, done,
                    done ? FailureClass::converged
                         : FailureClass::breakdown_omega};
        }
        omega = t_s / t_t;
        // x = x + alpha * p_hat + omega * s_hat in ONE sweep.
        obs::traced(obs::Phase::update, "update", [&] {
            blas::axpbypcz(alpha, ConstVecView<real_type>(p_hat), omega,
                           ConstVecView<real_type>(s_hat), real_type{1}, x);
        });
        // r = s - omega * t, fused with ||r|| on the classic kernel. The
        // pipelined sweep fuses no norm: ||r|| and the next rho come from
        // the dot4 results, which is the whole point.
        rho_old = rho;
        if constexpr (Pipelined) {
            obs::traced(obs::Phase::update, "update", [&] {
                blas::zaxpby(real_type{1}, ConstVecView<real_type>(s),
                             -omega, ConstVecView<real_type>(t), r);
            });
            r_norm = recurrence_norm(s_norm * s_norm - 2 * omega * t_s +
                                     omega * omega * t_t);
            rho = s_rhat - omega * t_rhat;
        } else {
            r_norm = obs::traced(obs::Phase::update, "update", [&] {
                return blas::zaxpby_nrm2(real_type{1},
                                         ConstVecView<real_type>(s), -omega,
                                         ConstVecView<real_type>(t), r);
            });
        }
    }
}

/// Reference BiCGStab on the unfused one-sweep-per-BLAS-call composition.
/// Mathematically identical to `bicgstab_kernel` (same operations in the
/// same order; fused sweeps only change rounding within a pass) but sweeps
/// the vectors ~13 times per iteration. Kept for the fusion ablation
/// benches and the fused-vs-unfused convergence tests.
template <typename MatrixView, typename Prec, typename Stop>
EntryResult bicgstab_kernel_unfused(
    const MatrixView& a, ConstVecView<real_type> b, VecView<real_type> x,
    const Prec& prec, const Stop& stop, int max_iters, Workspace& ws,
    int work_offset = 0, obs::HistorySink history = {})
{
    auto r = ws.slot(work_offset + 0);
    auto r_hat = ws.slot(work_offset + 1);
    auto p = ws.slot(work_offset + 2);
    auto p_hat = ws.slot(work_offset + 3);
    auto v = ws.slot(work_offset + 4);
    auto s = ws.slot(work_offset + 5);
    auto s_hat = ws.slot(work_offset + 6);
    auto t = ws.slot(work_offset + 7);

    const real_type b_norm = blas::nrm2(b);

    // r = b - A x; with a zero guess this reduces to r = b.
    real_type r_norm = residual(a, b, ConstVecView<real_type>(x), r);
    obs::traced(obs::Phase::update, "update", [&] {
        blas::copy(ConstVecView<real_type>(r), r_hat);
        blas::fill(p, real_type{0});
        blas::fill(v, real_type{0});
    });
    const real_type r0 = r_norm;
    real_type rho_old = 1;
    real_type omega = 1;
    real_type alpha = 1;
    // x += alpha p_hat: the update of an iteration that ends at s.
    const auto finish_at_s = [&] {
        obs::traced(obs::Phase::update, "update", [&] {
            blas::axpy(alpha, ConstVecView<real_type>(p_hat), x);
        });
    };

    for (int iter = 0;; ++iter) {
        history.record(iter, r_norm);
        if (const auto exit =
                loop_exit(stop, iter, max_iters, r_norm, b_norm, r0)) {
            return *exit;
        }
        const real_type rho = obs::traced(obs::Phase::reduction, "reduction", [&] {
            return blas::dot(ConstVecView<real_type>(r),
                             ConstVecView<real_type>(r_hat));
        });
        if (rho == real_type{0} || omega == real_type{0}) {
            // Serious breakdown: the Krylov space cannot be extended.
            return {iter, r_norm, false,
                    rho == real_type{0} ? FailureClass::breakdown_rho
                                        : FailureClass::breakdown_omega};
        }
        const real_type beta = (rho / rho_old) * (alpha / omega);
        // p = r + beta * (p - omega * v)
        obs::traced(obs::Phase::update, "update", [&] {
            blas::axpy(-omega, ConstVecView<real_type>(v), p);
            blas::axpby(real_type{1}, ConstVecView<real_type>(r), beta, p);
        });
        obs::traced(obs::Phase::precond, "precond_apply",
                    [&] { prec.apply(ConstVecView<real_type>(p), p_hat); });
        obs::traced(obs::Phase::spmv, "spmv",
                    [&] { spmv(a, ConstVecView<real_type>(p_hat), v); });
        const real_type r_hat_v = obs::traced(obs::Phase::reduction, "reduction", [&] {
            return blas::dot(ConstVecView<real_type>(r_hat),
                             ConstVecView<real_type>(v));
        });
        if (r_hat_v == real_type{0}) {
            return {iter, r_norm, false, FailureClass::breakdown_rho};
        }
        alpha = rho / r_hat_v;
        // s = r - alpha * v
        obs::traced(obs::Phase::update, "update", [&] {
            blas::copy(ConstVecView<real_type>(r), s);
            blas::axpy(-alpha, ConstVecView<real_type>(v), s);
        });
        const real_type s_norm = obs::traced(obs::Phase::reduction, "reduction", [&] {
            return blas::nrm2(ConstVecView<real_type>(s));
        });
        if (stop.done(s_norm, b_norm)) {
            finish_at_s();
            return {iter + 1, s_norm, true, FailureClass::converged};
        }
        obs::traced(obs::Phase::precond, "precond_apply",
                    [&] { prec.apply(ConstVecView<real_type>(s), s_hat); });
        obs::traced(obs::Phase::spmv, "spmv",
                    [&] { spmv(a, ConstVecView<real_type>(s_hat), t); });
        const real_type t_t = obs::traced(obs::Phase::reduction, "reduction", [&] {
            return blas::dot(ConstVecView<real_type>(t),
                             ConstVecView<real_type>(t));
        });
        const real_type t_s = obs::traced(obs::Phase::reduction, "reduction", [&] {
            return blas::dot(ConstVecView<real_type>(t),
                             ConstVecView<real_type>(s));
        });
        if (t_t == real_type{0}) {
            finish_at_s();
            r_norm = s_norm;
            const bool done = stop.done(r_norm, b_norm);
            return {iter + 1, r_norm, done,
                    done ? FailureClass::converged
                         : FailureClass::breakdown_omega};
        }
        omega = t_s / t_t;
        // x = x + alpha * p_hat + omega * s_hat
        obs::traced(obs::Phase::update, "update", [&] {
            blas::axpy(alpha, ConstVecView<real_type>(p_hat), x);
            blas::axpy(omega, ConstVecView<real_type>(s_hat), x);
        });
        // r = s - omega * t
        obs::traced(obs::Phase::update, "update", [&] {
            blas::copy(ConstVecView<real_type>(s), r);
            blas::axpy(-omega, ConstVecView<real_type>(t), r);
        });
        r_norm = obs::traced(obs::Phase::reduction, "reduction", [&] {
            return blas::nrm2(ConstVecView<real_type>(r));
        });
        rho_old = rho;
    }
}

}  // namespace bsis
