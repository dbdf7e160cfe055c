// Batched BiCGStab (paper Algorithm 1), written once.
//
// `BicgstabLanes` is the algorithm as a lane policy (core/lockstep.hpp):
// its vectors, a lane's set-up and the iteration body, composed at compile
// time with a lane group the way the paper's Listing 1 composes the matrix
// format, preconditioner and stopping criterion into one inlined kernel.
// `bicgstab_kernel` runs it on the width-1 group -- ONE system of the
// batch, the exact work a single GPU thread block performs inside the
// fused solver kernel -- and the lockstep path on the W-lane slab group.
//
// The body sweeps the vectors with the fused single-pass kernels, matching
// the sweep structure of the paper's fused GPU kernel: 4 update sweeps and
// 3 reduction sweeps per iteration instead of the ~13 sweeps of the naive
// BLAS composition; `Pipelined` selects the pipelined recurrences
// (core/pipelined.hpp). `bicgstab_kernel_unfused` keeps the one-sweep-per-
// call composition as the reference for the fusion A/B tests and benches.
#pragma once

#include <optional>

#include "blas/kernels.hpp"
#include "core/failure.hpp"
#include "core/lockstep.hpp"
#include "core/pipelined.hpp"
#include "core/residual.hpp"
#include "core/workspace.hpp"
#include "obs/convergence.hpp"
#include "obs/telemetry.hpp"
#include "util/isa.hpp"
#include "util/types.hpp"

namespace bsis {

/// Number of scratch vectors the BiCGStab kernel draws from the workspace
/// (r, r_hat, p, p_hat, v, s, s_hat, t), excluding x and the
/// preconditioner's own storage.
inline constexpr int bicgstab_work_vectors = 8;

// The lane policy is compiled once per instruction-set copy
// (util/isa.hpp).
inline namespace BSIS_ISA_NAMESPACE {

/// BiCGStab lanes. On the slab group each lane reproduces the width-1
/// operation order (same sweeps, ascending-order reductions, breakdown
/// checks), retired lanes masked by coefficients. Pipelined, the slab group
/// fuses r_hat.v into the first SpMV sweep and the t-side reductions into
/// the second, so W lanes serialize on lane scalars at TWO points per
/// iteration instead of five; rho and the residual norm are carried by the
/// single-iteration recurrences.
template <typename Group, bool Pipelined>
struct BicgstabLanes {
    using group = Group;
    static constexpr int W = Group::width;
    /// Workspace vectors: r, r_hat, p, p_hat, v, s, s_hat, t.
    static constexpr int vectors = bicgstab_work_vectors;

    explicit BicgstabLanes(Group& g)
        : r(g.slot(0)), r_hat(g.slot(1)), p(g.slot(2)), p_hat(g.slot(3)),
          v(g.slot(4)), s(g.slot(5)), s_hat(g.slot(6)), t(g.slot(7))
    {}

    real_type* r;
    real_type* r_hat;
    real_type* p;
    real_type* p_hat;
    real_type* v;
    real_type* s;
    real_type* s_hat;
    real_type* t;
    real_type rho[W] = {};
    real_type rho_old[W] = {};
    real_type alpha[W] = {};
    real_type omega[W] = {};

    /// Lane l's preamble: r = b - A x fused with ||r||, r_hat = r and
    /// p = v = 0 in the same sweep. Returns ||r||.
    real_type setup(Group& g, int l)
    {
        const real_type r_norm =
            g.residual(l, r, [&](std::size_t i, real_type ri) {
                r_hat[i] = ri;
                p[i] = real_type{0};
                v[i] = real_type{0};
            });
        if constexpr (Pipelined) {
            // The first rho is measured (r_hat = r here, so it equals the
            // classic iteration-0 dot bit for bit); later rhos come from
            // the recurrence at the bottom of the iteration.
            rho[l] = g.dot(l, r, r_hat);
        }
        rho_old[l] = alpha[l] = omega[l] = real_type{1};
        return r_norm;
    }

    /// Serious breakdown: the Krylov space cannot be extended. The
    /// loop-top rule asks before the iteration, where only the pipelined
    /// variant knows rho already -- that is the pipelining; the classic
    /// variant asks again right after measuring rho in `iterate`.
    std::optional<FailureClass> breakdown(int l,
                                          bool rho_known = Pipelined) const
    {
        if (!rho_known) {
            return std::nullopt;
        }
        if (rho[l] == real_type{0}) {
            return FailureClass::breakdown_rho;
        }
        if (omega[l] == real_type{0}) {
            return FailureClass::breakdown_omega;
        }
        return std::nullopt;
    }

    template <typename Stop>
    void iterate(Group& g, const Stop& stop)
    {
        const index_type n = g.n;
        real_type ca[W];
        real_type cb[W];
        real_type cc[W];

        // Classic: rho = r . r_hat; serious breakdown retires the lane.
        if constexpr (!Pipelined) {
            obs::traced(obs::Phase::reduction,
                        [&] { blas::dot_lanes<W>(r, r_hat, n, rho); });
        }
        real_type beta[W] = {};
        for (int l = 0; l < W; ++l) {
            if (!g.active[l]) {
                continue;
            }
            if constexpr (!Pipelined) {
                if (const auto fc = breakdown(l, true)) {
                    g.finish(l, {g.iter[l], g.r_norm[l], false, *fc});
                    continue;
                }
            }
            beta[l] = (rho[l] / rho_old[l]) * (alpha[l] / omega[l]);
        }
        if (g.idle()) {
            return;
        }
        // p = r + beta * (p - omega * v) in ONE sweep; retired lanes pass
        // (0, 0, 1).
        for (int l = 0; l < W; ++l) {
            cb[l] = g.active[l] ? -beta[l] * omega[l] : real_type{0};
            cc[l] = g.active[l] ? beta[l] : real_type{1};
        }
        obs::traced(obs::Phase::update, [&] {
            blas::axpbypcz_lanes<W>(g.act, r, cb, v, cc, p, n);
        });
        g.precond(p, p_hat);
        // v = A p_hat and r_hat . v (alpha's denominator). Pipelined: the
        // slab fuses the dot into the producing sweep, the first lane-group
        // synchronization point of the iteration.
        real_type r_hat_v[W];
        if constexpr (Pipelined) {
            g.spmv_dot(p_hat, r_hat, v, r_hat_v);
        } else {
            g.spmv(p_hat, v);
            obs::traced(obs::Phase::reduction,
                        [&] { blas::dot_lanes<W>(r_hat, v, n, r_hat_v); });
        }
        for (int l = 0; l < W; ++l) {
            if (g.active[l]) {
                if (r_hat_v[l] == real_type{0}) {
                    // alpha = rho / r_hat.v is undefined: rho-side
                    // breakdown.
                    g.finish(l, {g.iter[l], g.r_norm[l], false,
                                 FailureClass::breakdown_rho});
                } else {
                    alpha[l] = rho[l] / r_hat_v[l];
                }
            }
        }
        if (g.idle()) {
            return;
        }
        // s = r - alpha * v fused with ||s|| (measured, anchoring the
        // pipelined residual-norm recurrence below).
        real_type s_norm[W];
        for (int l = 0; l < W; ++l) {
            cb[l] = g.active[l] ? -alpha[l] : real_type{0};
        }
        obs::traced(obs::Phase::update, [&] {
            blas::zaxpby_nrm2_lanes<W>(g.act, r, cb, v, s, n, s_norm);
        });
        // A lane whose ||s|| meets the stop ends here, with x += alpha
        // p_hat as its last update. A width-1 group applies it and
        // returns; a wider group lets the lane ride the remaining sweeps
        // with its omega coefficient zeroed (so the fused x update applies
        // exactly alpha * p_hat) and retires it at the bottom.
        bool early[W] = {};
        for (int l = 0; l < W; ++l) {
            if (g.active[l]) {
                early[l] = stop.done(s_norm[l], g.b_norm[l]);
            }
        }
        if constexpr (W == 1) {
            if (early[0]) {
                return stop_at_s(g, {g.iter[0] + 1, s_norm[0], true,
                                     FailureClass::converged});
            }
        }
        g.precond(s, s_hat);
        // t = A s_hat, then t.t and t.s in one sweep over t. Pipelined:
        // s.r_hat and t.r_hat too, the recurrence operands (t.t and t.s
        // stay bit-identical to the classic dual dot); the slab fuses all
        // four into the producing sweep, the second and last
        // synchronization point.
        real_type t_t[W];
        real_type t_s[W];
        real_type s_rhat[W];
        real_type t_rhat[W];
        if constexpr (Pipelined) {
            g.spmv_dot4(s_hat, s, r_hat, t, t_t, t_s, s_rhat, t_rhat);
        } else {
            g.spmv(s_hat, t);
            obs::traced(obs::Phase::reduction, [&] {
                blas::dot2_lanes<W>(t, t, s, n, t_t, t_s);
            });
        }
        // t.t == 0 after a failed ||s|| check: the lane also ends at s,
        // unconverged, on the omega side.
        bool tt0[W] = {};
        for (int l = 0; l < W; ++l) {
            if (g.active[l] && !early[l]) {
                if (t_t[l] == real_type{0}) {
                    tt0[l] = true;
                } else {
                    omega[l] = t_s[l] / t_t[l];
                }
            }
        }
        if constexpr (W == 1) {
            if (tt0[0]) {
                return stop_at_s(g, {g.iter[0] + 1, s_norm[0], false,
                                     FailureClass::breakdown_omega});
            }
        }
        // x = x + alpha * p_hat + omega * s_hat in ONE sweep.
        bool cont[W];
        for (int l = 0; l < W; ++l) {
            cont[l] = g.active[l] && !early[l] && !tt0[l];
            ca[l] = g.active[l] ? alpha[l] : real_type{0};
            cb[l] = cont[l] ? omega[l] : real_type{0};
            cc[l] = real_type{1};
        }
        obs::traced(obs::Phase::update, [&] {
            blas::axpbypcz_lanes<W>(ca, p_hat, cb, s_hat, cc, g.x, n);
        });
        // r = s - omega * t for continuing lanes, fused with ||r||
        // (classic) or PLAIN (pipelined: ||r|| and the next rho come from
        // the recurrences below, which is the whole point).
        real_type rn_new[W];
        for (int l = 0; l < W; ++l) {
            ca[l] = cont[l] ? real_type{1} : real_type{0};
            cb[l] = cont[l] ? -omega[l] : real_type{0};
        }
        obs::traced(obs::Phase::update, [&] {
            if constexpr (Pipelined) {
                blas::zaxpby_lanes<W>(ca, s, cb, t, r, n);
            } else {
                blas::zaxpby_nrm2_lanes<W>(ca, s, cb, t, r, n, rn_new);
            }
        });
        for (int l = 0; l < W; ++l) {
            if (early[l] || tt0[l]) {
                g.finish(l, {g.iter[l] + 1, s_norm[l], early[l],
                             early[l] ? FailureClass::converged
                                      : FailureClass::breakdown_omega});
            } else if (cont[l]) {
                rho_old[l] = rho[l];
                if constexpr (Pipelined) {
                    g.r_norm[l] = recurrence_norm(
                        s_norm[l] * s_norm[l] - 2 * omega[l] * t_s[l] +
                        omega[l] * omega[l] * t_t[l]);
                    rho[l] = s_rhat[l] - omega[l] * t_rhat[l];
                } else {
                    g.r_norm[l] = rn_new[l];
                }
                g.advance(l);
            }
        }
    }

private:
    /// The end of a width-1 iteration at s: x += alpha * p_hat, then the
    /// lane retires with `e`.
    void stop_at_s(Group& g, const EntryResult& e)
    {
        obs::traced(obs::Phase::update, [&] {
            blas::axpy_lanes<W>(alpha, p_hat, g.x, g.n);
        });
        g.finish(0, e);
    }
};

}  // inline namespace BSIS_ISA_NAMESPACE

/// Solves A x = b on one batch entry with preconditioned BiCGStab: the
/// width-1 run of `BicgstabLanes`. `x` holds the initial guess on entry
/// and the solution on exit; `prec` must already be generated for this
/// system's matrix. `history` records the residual norm at the top of
/// every iteration (the per-system logging of the paper's Listing 1
/// LogType). `Pipelined` selects the pipelined recurrences: two standalone
/// reductions per iteration instead of three, and stopping decisions that
/// agree with the classic kernel's within one iteration. With `blocks`
/// (the entry on the batch's row blocks) the SpMVs run at x86-64-v4, bit
/// for bit the format kernel's.
template <bool Pipelined = false, typename MatrixView, typename Prec,
          typename Stop>
EntryResult bicgstab_kernel(const MatrixView& a, ConstVecView<real_type> b,
                            VecView<real_type> x, const Prec& prec,
                            const Stop& stop, int max_iters, Workspace& ws,
                            int work_offset = 0,
                            obs::HistorySink history = {},
                            RowBlockEntry blocks = {})
{
    lockstep::EntryLane<MatrixView, Prec> g(a, b, x, prec, ws, work_offset,
                                            history, blocks);
    return lockstep::run_entry<BicgstabLanes<decltype(g), Pipelined>>(
        g, stop, max_iters);
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
