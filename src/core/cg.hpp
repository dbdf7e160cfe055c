// Batched preconditioned Conjugate Gradient, written once.
//
// For symmetric positive definite batch entries. Not the paper's headline
// solver (the collision matrices are nonsymmetric) but part of the
// "several preconditionable iterative solvers" the library provides
// (Section IV-B) and the reference solver for SPD test problems. `CgLanes`
// is the algorithm as a lane policy (core/lockstep.hpp); `cg_kernel` runs
// it on the width-1 group, the lockstep path on the W-lane slab group.
#pragma once

#include <optional>

#include "blas/kernels.hpp"
#include "core/failure.hpp"
#include "core/lockstep.hpp"
#include "core/pipelined.hpp"
#include "core/workspace.hpp"
#include "obs/convergence.hpp"
#include "obs/telemetry.hpp"
#include "util/isa.hpp"
#include "util/types.hpp"

namespace bsis {

/// Scratch vectors: r, z, p, q.
inline constexpr int cg_work_vectors = 4;

// The lane policy is compiled once per instruction-set copy
// (util/isa.hpp).
inline namespace BSIS_ISA_NAMESPACE {

/// CG lanes. The pipelined variant merges the p.q and residual-norm
/// reductions into one dot3_nrm2_lanes sweep and drops the r-update sweep's
/// fused norm (the recurrence supplies it); the width-1 group also folds
/// the r.z dot into the preconditioner sweep (Prec::apply_dot). alpha and
/// beta come from the same dot values in both variants, so only the stop
/// decisions ride the recurrence norm.
template <typename Group, bool Pipelined>
struct CgLanes {
    using group = Group;
    static constexpr int W = Group::width;
    /// Workspace vectors: r, z, p, q.
    static constexpr int vectors = cg_work_vectors;

    explicit CgLanes(Group& g)
        : r(g.slot(0)), z(g.slot(1)), p(g.slot(2)), q(g.slot(3))
    {}

    real_type* r;
    real_type* z;
    real_type* p;
    real_type* q;
    real_type rz[W] = {};

    /// Lane l's preamble: r = b - A x; z = M^-1 r and rz = r . z; p = z.
    /// Returns ||r||.
    real_type setup(Group& g, int l)
    {
        const real_type r_norm = g.residual(l, r);
        if constexpr (Pipelined) {
            rz[l] = g.precond_dot(l, r, z);
        } else {
            g.precond(l, r, z);
            rz[l] = g.dot(l, r, z);
        }
        g.copy(l, z, p);
        return r_norm;
    }

    /// The search direction collapsed: alpha = rz / pq is undefined.
    std::optional<FailureClass> breakdown(int l) const
    {
        if (rz[l] == real_type{0}) {
            return FailureClass::breakdown_rho;
        }
        return std::nullopt;
    }

    template <typename Stop>
    void iterate(Group& g, const Stop&)
    {
        const index_type n = g.n;
        real_type alpha[W] = {};
        real_type minus_alpha[W] = {};

        // q = A p; pq = p . q; pq <= 0 means CG is not applicable.
        // Pipelined: the reduction widens to q.p, q.q, q.r and the
        // measured ||r|| in one sweep -- everything the residual-norm
        // recurrence needs.
        g.spmv(p, q);
        real_type pq[W];
        real_type qq[W];
        real_type qr[W];
        real_type r_meas[W];
        obs::traced(obs::Phase::reduction, [&] {
            if constexpr (Pipelined) {
                blas::dot3_nrm2_lanes<W>(q, p, r, n, pq, qq, qr, r_meas);
            } else {
                blas::dot_lanes<W>(p, q, n, pq);
            }
        });
        for (int l = 0; l < W; ++l) {
            if (g.active[l]) {
                if (pq[l] <= real_type{0}) {
                    // Indefinite matrix: CG is not applicable.
                    g.finish(l, {g.iter[l], g.r_norm[l], false,
                                 FailureClass::breakdown_rho});
                } else {
                    alpha[l] = rz[l] / pq[l];
                    minus_alpha[l] = -alpha[l];
                }
            }
        }
        if (g.idle()) {
            return;
        }
        // x += alpha * p; retired lanes pass alpha = 0.
        obs::traced(obs::Phase::update,
                    [&] { blas::axpy_lanes<W>(alpha, p, g.x, n); });
        // r -= alpha * q, fused with ||r|| (classic) or PLAIN (pipelined:
        // the norm is ||r - alpha q||^2 re-anchored at this iteration's
        // measured ||r||, so recurrence rounding cannot compound).
        real_type rn_new[W];
        obs::traced(obs::Phase::update, [&] {
            if constexpr (Pipelined) {
                blas::axpy_lanes<W>(minus_alpha, q, r, n);
            } else {
                blas::axpy_nrm2_lanes<W>(minus_alpha, q, r, n, rn_new);
            }
        });
        for (int l = 0; l < W; ++l) {
            if (g.active[l]) {
                if constexpr (Pipelined) {
                    g.r_norm[l] = recurrence_norm(
                        r_meas[l] * r_meas[l] - 2 * alpha[l] * qr[l] +
                        alpha[l] * alpha[l] * qq[l]);
                } else {
                    g.r_norm[l] = rn_new[l];
                }
            }
        }
        // z = M^-1 r and r . z (one sweep when pipelined on the width-1
        // group); beta = (r . z)_new / rz; p = z + beta * p, retired lanes
        // passing (0, 1).
        real_type rz_new[W];
        if constexpr (Pipelined) {
            g.precond_dot(r, z, rz_new);
        } else {
            g.precond(r, z);
            obs::traced(obs::Phase::reduction,
                        [&] { blas::dot_lanes<W>(r, z, n, rz_new); });
        }
        real_type beta[W];
        for (int l = 0; l < W; ++l) {
            beta[l] = g.active[l] ? rz_new[l] / rz[l] : real_type{1};
        }
        obs::traced(obs::Phase::update, [&] {
            blas::zaxpby_lanes<W>(g.act, z, beta, p, p, n);
        });
        for (int l = 0; l < W; ++l) {
            if (g.active[l]) {
                rz[l] = rz_new[l];
                g.advance(l);
            }
        }
    }
};

}  // inline namespace BSIS_ISA_NAMESPACE

/// Solves A x = b on one batch entry with preconditioned CG: the width-1
/// run of `CgLanes` (same contract as `bicgstab_kernel`). `Pipelined`
/// selects the pipelined recurrences; the iterates stay bit-identical to
/// the classic kernel's and stop decisions may differ by one iteration.
template <bool Pipelined = false, typename MatrixView, typename Prec,
          typename Stop>
EntryResult cg_kernel(const MatrixView& a, ConstVecView<real_type> b,
                      VecView<real_type> x, const Prec& prec,
                      const Stop& stop, int max_iters, Workspace& ws,
                      int work_offset = 0, obs::HistorySink history = {},
                      RowBlockEntry blocks = {})
{
    lockstep::EntryLane<MatrixView, Prec> g(a, b, x, prec, ws, work_offset,
                                            history, blocks);
    return lockstep::run_entry<CgLanes<decltype(g), Pipelined>>(g, stop,
                                                                 max_iters);
}

}  // namespace bsis
