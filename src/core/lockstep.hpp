// Batch-lockstep solver drivers: W systems per thread, advanced in SIMD.
//
// The scalar host path assigns one batch entry per OpenMP thread at a
// time -- the CPU image of the paper's one-thread-block-per-system
// mapping, with the warp lanes' row-sweep serialized into the kernel
// loops. The lockstep path recovers that lost lane parallelism on the
// OTHER axis: each thread advances a GROUP of W batch entries through the
// same solver iteration simultaneously, with every BLAS-1 sweep, Jacobi
// apply, and SpMV running over batch-interleaved storage (element i of
// lane l at data[i*W + l]) so the inner loop body is one contiguous
// width-W vector operation that `#pragma omp simd` turns into straight
// vector code. Where a GPU warp's 32 lanes sweep the rows of one system,
// the CPU's SIMD lanes here sweep W systems at one row -- same lockstep,
// transposed mapping (see DESIGN.md).
//
// Divergence handling mirrors the GPU's predication: per-lane state is
// masked by COEFFICIENTS, not branches. A lane whose system has converged
// (or broken down) passes (0, ..., 1) into the fused updates so its
// column is left untouched, and is refilled with the next unsolved system
// from a shared atomic counter at the top of the iteration loop -- the
// CPU version of persistent thread blocks draining a work queue. Each
// lane reproduces the scalar fused kernel's operation order exactly
// (same sweeps, same ascending-order reductions, same breakdown checks),
// so a lockstep solve returns the same per-system iteration counts and
// residual norms as the scalar path up to rounding.
//
// The lane protocol (slot layout, per-lane state, retirement and refill)
// is written once, in `drain_lanes`; its loop-top retire order is the
// scalar kernels' own exit rule, `loop_exit`. An algorithm is a lane
// policy -- `BicgstabLanes` or `CgLanes`, each with the classic and
// pipelined recurrences as a compile-time flag -- that supplies only its
// vectors, its per-lane setup and its iteration body.
#pragma once

#include <atomic>
#include <cmath>
#include <optional>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "blas/batch_vector.hpp"
#include "blas/kernels.hpp"
#include "core/failure.hpp"
#include "core/logger.hpp"
#include "core/pipelined.hpp"
#include "core/workspace.hpp"
#include "matrix/ell_slab.hpp"
#include "obs/convergence.hpp"
#include "obs/telemetry.hpp"
#include "util/error.hpp"
#include "util/first_exception.hpp"
#include "util/types.hpp"

namespace bsis {

namespace lockstep {

inline int this_thread()
{
#ifdef _OPENMP
    return omp_get_thread_num();
#else
    return 0;
#endif
}

inline int max_threads()
{
#ifdef _OPENMP
    return omp_get_max_threads();
#else
    return 1;
#endif
}

/// Workspace slots every lane group holds after its algorithm's vectors:
/// x, b and inv_diag. The matrix slab occupies `nnz_per_row` further slots
/// as one contiguous strip.
inline constexpr int group_slots = 3;

/// Scalar-Jacobi setup for one lane: inv_diag(:, lane) := 1 / diag(A_i).
/// Extracts from the SOURCE format view, never from the slab pattern
/// (whose padding slots alias column 0), with the diagonal rule and the
/// zero-diagonal breakdown of JacobiPrec::generate.
template <typename MatrixView>
inline void pack_inv_diag_lane(const MatrixView& a, index_type rows,
                               real_type* inv_diag, int width, int lane)
{
    for (index_type r = 0; r < rows; ++r) {
        const real_type d = diagonal_at(a, r);
        if (d == real_type{0}) {
            throw NumericalBreakdown("JacobiPrec", "zero diagonal entry");
        }
        inv_diag[static_cast<std::size_t>(r) * width + lane] =
            real_type{1} / d;
    }
}

/// v(:, lane) . w(:, lane) in ascending element order (the order of the
/// scalar blas::dot; sqrt(lane_dot(v, v)) is the scalar blas::nrm2).
inline real_type lane_dot(const real_type* v, const real_type* w,
                          index_type n, int width, int lane)
{
    real_type sum{};
    for (index_type i = 0; i < n; ++i) {
        sum += v[static_cast<std::size_t>(i) * width + lane] *
               w[static_cast<std::size_t>(i) * width + lane];
    }
    return sum;
}

/// out = M^-1 in over the group, mask-selected so parked columns keep
/// their values rather than being recomputed from stale operands.
template <int W, bool Jacobi>
inline void precond_lanes(const real_type* inv_diag, const real_type* in,
                          const real_type* act, real_type* out, index_type n)
{
    obs::traced(obs::Phase::precond, "precond_apply", [&] {
        if constexpr (Jacobi) {
            blas::mul_elementwise_lanes<W>(inv_diag, in, act, out, n);
        } else {
            blas::copy_lanes<W>(in, act, out, n);
        }
    });
}

/// State of one thread's group of W lanes that every algorithm shares:
/// the interleaved x / b / inv_diag columns and matrix slab, where a
/// retiring lane reports, and each lane's system and progress.
template <int W>
struct LaneGroup {
    index_type n;
    real_type* xg;
    real_type* bg;
    real_type* inv_diag;
    EllSlabView<real_type> av;
    BatchVector<real_type>& x_out;
    BatchLogStage& stage;
    int thread;
    obs::ConvergenceHistory* history;

    size_type sys[W] = {};
    int iter[W] = {};
    bool active[W] = {};
    real_type act[W] = {};  // 1.0 active, 0.0 parked: the coefficient mask
    real_type b_norm[W] = {};
    real_type r_norm[W] = {};
    real_type r0[W] = {};

    /// r(:, l) = b - A x fused with ||r(:, l)||, the scalar kernels'
    /// residual setup; init(idx, r_j) seeds the algorithm's other vectors
    /// in the same sweep.
    template <typename Init>
    real_type residual(int l, real_type* r, Init&& init)
    {
        spmv_slab_lane(av, l, xg, r);
        real_type sum{};
        for (index_type j = 0; j < n; ++j) {
            const std::size_t idx = static_cast<std::size_t>(j) * W + l;
            const real_type rj = bg[idx] - r[idx];
            r[idx] = rj;
            sum += rj * rj;
            init(idx, rj);
        }
        return std::sqrt(sum);
    }

    /// Records lane l's outcome, writes its solution column back to the
    /// caller's entry-major x (the scalar path writes x in place; here the
    /// column is the working copy) and parks the lane.
    void finish(int l, const EntryResult& e)
    {
        stage.record(thread, sys[l], e.iterations, e.residual_norm,
                     e.converged, e.failure);
        if (history != nullptr) {
            history->finalize(sys[l], e.iterations, e.residual_norm,
                              e.converged);
        }
        unpack_lane(ConstLaneGroupView<real_type>(xg, n, W), l,
                    x_out.entry(sys[l]));
        active[l] = false;
        act[l] = real_type{0};
    }

    /// Lane l completed an iteration ending at residual norm r_norm[l].
    void advance(int l)
    {
        ++iter[l];
        if (history != nullptr) {
            history->record(sys[l], iter[l], r_norm[l]);
        }
    }
};

}  // namespace lockstep

/// BiCGStab lanes. Lane semantics (operation order, breakdown checks,
/// iteration counts) match `bicgstab_kernel<Pipelined>` exactly -- see the
/// per-step notes. The pipelined variant drops the three STANDALONE
/// lane-group reduction sweeps: r_hat.v fuses into the first SpMV sweep
/// (the freshly produced v is dotted in registers), the t-side reductions
/// fuse into the second SpMV sweep, and s.r_hat rides the s-update sweep
/// -- so a W-wide group serializes on lane scalars at TWO points per
/// iteration (after each SpMV) instead of five. rho and the residual norm
/// are then carried by the single-iteration recurrences.
template <int W, bool Jacobi, bool Pipelined>
struct BicgstabLanes {
    static constexpr int width = W;
    static constexpr bool jacobi = Jacobi;
    /// Workspace vectors: r, r_hat, p, p_hat, v, s, s_hat, t.
    static constexpr int vectors = 8;

    explicit BicgstabLanes(Workspace& ws)
        : r(ws.slot(0).data),
          r_hat(ws.slot(1).data),
          p(ws.slot(2).data),
          p_hat(ws.slot(3).data),
          v(ws.slot(4).data),
          s(ws.slot(5).data),
          s_hat(ws.slot(6).data),
          t(ws.slot(7).data)
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

    /// The scalar kernel's preamble on lane l's column: r = b - A x fused
    /// with ||r||, r_hat = r, p = v = 0. Returns ||r||.
    real_type setup(lockstep::LaneGroup<W>& g, int l)
    {
        const real_type r_norm =
            g.residual(l, r, [&](std::size_t idx, real_type rj) {
                r_hat[idx] = rj;
                p[idx] = real_type{0};
                v[idx] = real_type{0};
            });
        if constexpr (Pipelined) {
            // First rho is measured (r_hat = r here, matching the scalar
            // pipelined kernel's setup dot); later rhos come from the
            // recurrence at the bottom of the iteration.
            rho[l] = lockstep::lane_dot(r, r_hat, g.n, W, l);
        }
        rho_old[l] = real_type{1};
        alpha[l] = real_type{1};
        omega[l] = real_type{1};
        return r_norm;
    }

    /// Serious breakdown: the Krylov space cannot be extended.
    /// `drain_lanes` asks at the loop top, where only the pipelined variant
    /// knows rho already -- that is the pipelining; the classic variant
    /// asks again right after measuring rho in `iterate`.
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
    void iterate(lockstep::LaneGroup<W>& g, const Stop& stop)
    {
        const index_type n = g.n;
        real_type ca[W];
        real_type cb[W];
        real_type cc[W];

        // Classic: rho = r . r_hat; serious breakdown parks the lane with
        // the scalar kernel's exact result (iter, r_norm, false).
        if constexpr (!Pipelined) {
            obs::traced(obs::Phase::reduction, "reduction",
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
        // p = r + beta * (p - omega * v); parked lanes pass (0, 0, 1).
        for (int l = 0; l < W; ++l) {
            ca[l] = g.act[l];
            cb[l] = g.active[l] ? -beta[l] * omega[l] : real_type{0};
            cc[l] = g.active[l] ? beta[l] : real_type{1};
        }
        obs::traced(obs::Phase::update, "update",
                    [&] { blas::axpbypcz_lanes<W>(ca, r, cb, v, cc, p, n); });
        lockstep::precond_lanes<W, Jacobi>(g.inv_diag, p, g.act, p_hat, n);
        // v = A p_hat for all lanes; a parked lane's column receives
        // garbage that never escapes the lane (refill rewrites it).
        // Pipelined: r_hat . v fuses into the producing sweep, the first
        // lane-group synchronization point of the iteration.
        real_type r_hat_v[W];
        if constexpr (Pipelined) {
            obs::traced(obs::Phase::spmv, "spmv", [&] {
                spmv_lanes_dot<W>(g.av, p_hat, r_hat, v, r_hat_v);
            });
        } else {
            obs::traced(obs::Phase::spmv, "spmv",
                        [&] { spmv_lanes<W>(g.av, p_hat, v); });
            obs::traced(obs::Phase::reduction, "reduction",
                        [&] { blas::dot_lanes<W>(r_hat, v, n, r_hat_v); });
        }
        for (int l = 0; l < W; ++l) {
            if (g.active[l]) {
                if (r_hat_v[l] == real_type{0}) {
                    g.finish(l, {g.iter[l], g.r_norm[l], false,
                                 FailureClass::breakdown_rho});
                } else {
                    alpha[l] = rho[l] / r_hat_v[l];
                }
            }
        }
        // s = r - alpha * v fused with ||s|| (pipelined: AND s . r_hat, the
        // rho recurrence operand, rides the same sweep).
        real_type s_norm[W];
        real_type s_rhat[W];
        for (int l = 0; l < W; ++l) {
            ca[l] = g.act[l];
            cb[l] = g.active[l] ? -alpha[l] : real_type{0};
        }
        obs::traced(obs::Phase::update, "update", [&] {
            if constexpr (Pipelined) {
                blas::zaxpby_nrm2_dot_lanes<W>(ca, r, cb, v, r_hat, s, n,
                                               s_norm, s_rhat);
            } else {
                blas::zaxpby_nrm2_lanes<W>(ca, r, cb, v, s, n, s_norm);
            }
        });
        // Early exit on ||s||: the scalar kernel applies x += alpha*p_hat
        // and returns {iter+1, s_norm, true}. Here the lane rides the
        // remaining sweeps with its omega coefficient zeroed (so the fused
        // x-update applies exactly alpha * p_hat) and parks at the bottom.
        bool early[W] = {};
        for (int l = 0; l < W; ++l) {
            if (g.active[l]) {
                early[l] = stop.done(s_norm[l], g.b_norm[l]);
            }
        }
        lockstep::precond_lanes<W, Jacobi>(g.inv_diag, s, g.act, s_hat, n);
        // t = A s_hat, then t.t and t.s. Pipelined: t.t, t.s and t.r_hat
        // fuse into the producing sweep (t.t / t.s bit-identical to the
        // classic dual dot), the second and last synchronization point.
        real_type t_t[W];
        real_type t_s[W];
        real_type t_rhat[W];
        if constexpr (Pipelined) {
            obs::traced(obs::Phase::spmv, "spmv", [&] {
                spmv_lanes_dot3<W>(g.av, s_hat, s, r_hat, t, t_t, t_s,
                                   t_rhat);
            });
        } else {
            obs::traced(obs::Phase::spmv, "spmv",
                        [&] { spmv_lanes<W>(g.av, s_hat, t); });
            obs::traced(obs::Phase::reduction, "reduction",
                        [&] { blas::dot2_lanes<W>(t, t, s, n, t_t, t_s); });
        }
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
        // x += alpha * p_hat + omega * s_hat (omega coefficient zeroed for
        // early-exit and t.t-breakdown lanes, matching the scalar axpy).
        for (int l = 0; l < W; ++l) {
            ca[l] = g.active[l] ? alpha[l] : real_type{0};
            cb[l] = g.active[l] && !early[l] && !tt0[l] ? omega[l]
                                                        : real_type{0};
            cc[l] = real_type{1};
        }
        obs::traced(obs::Phase::update, "update", [&] {
            blas::axpbypcz_lanes<W>(ca, p_hat, cb, s_hat, cc, g.xg, n);
        });
        // r = s - omega * t for continuing lanes, fused with ||r|| (classic)
        // or PLAIN (pipelined: ||r|| and the next rho come from the
        // recurrences below, not from this sweep).
        real_type rn_new[W];
        for (int l = 0; l < W; ++l) {
            const bool cont = g.active[l] && !early[l] && !tt0[l];
            ca[l] = cont ? real_type{1} : real_type{0};
            cb[l] = cont ? -omega[l] : real_type{0};
        }
        obs::traced(obs::Phase::update, "update", [&] {
            if constexpr (Pipelined) {
                blas::zaxpby_lanes<W>(ca, s, cb, t, r, n);
            } else {
                blas::zaxpby_nrm2_lanes<W>(ca, s, cb, t, r, n, rn_new);
            }
        });
        for (int l = 0; l < W; ++l) {
            if (!g.active[l]) {
                continue;
            }
            if (early[l]) {
                g.finish(l, {g.iter[l] + 1, s_norm[l], true,
                             FailureClass::converged});
            } else if (tt0[l]) {
                // t.t == 0 after a failed ||s|| check: the scalar kernel
                // returns {iter+1, s_norm, stop.done(s_norm, b_norm)},
                // and the stop check just failed.
                g.finish(l, {g.iter[l] + 1, s_norm[l], false,
                             FailureClass::breakdown_omega});
            } else {
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
};

/// CG lanes (lane semantics match `cg_kernel<Pipelined>`). The pipelined
/// variant merges the p.q and residual-norm reductions into one dot3_nrm2
/// sweep and drops the r-update sweep's fused norm (the recurrence
/// supplies it), leaving two lane-scalar synchronization points per
/// iteration (after the merged reduction and after the r.z dot) instead of
/// three. alpha / beta are built from the same dot values in both
/// variants, so the lane iterates evolve bit-identically; only stop
/// decisions ride the recurrence norm.
template <int W, bool Jacobi, bool Pipelined>
struct CgLanes {
    static constexpr int width = W;
    static constexpr bool jacobi = Jacobi;
    /// Workspace vectors: r, z, p, q.
    static constexpr int vectors = 4;

    explicit CgLanes(Workspace& ws)
        : r(ws.slot(0).data),
          z(ws.slot(1).data),
          p(ws.slot(2).data),
          q(ws.slot(3).data)
    {}

    real_type* r;
    real_type* z;
    real_type* p;
    real_type* q;
    real_type rz[W] = {};

    /// r = b - A x; z = M^-1 r; p = z; rz = r . z. Returns ||r||.
    real_type setup(lockstep::LaneGroup<W>& g, int l)
    {
        const real_type r_norm =
            g.residual(l, r, [&](std::size_t idx, real_type rj) {
                const real_type zj = Jacobi ? g.inv_diag[idx] * rj : rj;
                z[idx] = zj;
                p[idx] = zj;
            });
        rz[l] = lockstep::lane_dot(r, z, g.n, W, l);
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
    void iterate(lockstep::LaneGroup<W>& g, const Stop&)
    {
        const index_type n = g.n;
        real_type ca[W];
        real_type cb[W];
        real_type cc[W];
        real_type alpha[W] = {};

        // q = A p; pq = p . q; pq <= 0 means CG is not applicable.
        // Pipelined: the reduction widens to q.p, q.q, q.r and the
        // measured ||r|| in one sweep.
        obs::traced(obs::Phase::spmv, "spmv",
                    [&] { spmv_lanes<W>(g.av, p, q); });
        real_type pq[W];
        real_type qq[W];
        real_type qr[W];
        real_type r_meas[W];
        obs::traced(obs::Phase::reduction, "reduction", [&] {
            if constexpr (Pipelined) {
                blas::dot3_nrm2_lanes<W>(q, p, r, n, pq, qq, qr, r_meas);
            } else {
                blas::dot_lanes<W>(p, q, n, pq);
            }
        });
        for (int l = 0; l < W; ++l) {
            if (g.active[l]) {
                if (pq[l] <= real_type{0}) {
                    g.finish(l, {g.iter[l], g.r_norm[l], false,
                                 FailureClass::breakdown_rho});
                } else {
                    alpha[l] = rz[l] / pq[l];
                }
            }
        }
        // x += alpha * p.
        for (int l = 0; l < W; ++l) {
            ca[l] = g.active[l] ? alpha[l] : real_type{0};
            cb[l] = real_type{0};
            cc[l] = real_type{1};
        }
        obs::traced(obs::Phase::update, "update", [&] {
            blas::axpbypcz_lanes<W>(ca, p, cb, p, cc, g.xg, n);
        });
        // r -= alpha * q, fused with ||r|| (classic) or PLAIN (pipelined:
        // the norm comes from the recurrence, re-anchored at this
        // iteration's measured ||r||).
        real_type rn_new[W];
        for (int l = 0; l < W; ++l) {
            ca[l] = g.active[l] ? -alpha[l] : real_type{0};
            cb[l] = real_type{1};
        }
        obs::traced(obs::Phase::update, "update", [&] {
            if constexpr (Pipelined) {
                blas::zaxpby_lanes<W>(ca, q, cb, r, r, n);
            } else {
                blas::axpy_nrm2_lanes<W>(ca, q, cb, r, n, rn_new);
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
        // z = M^-1 r; beta = (r . z)_new / rz; p = z + beta * p.
        lockstep::precond_lanes<W, Jacobi>(g.inv_diag, r, g.act, z, n);
        real_type rz_new[W];
        obs::traced(obs::Phase::reduction, "reduction",
                    [&] { blas::dot_lanes<W>(r, z, n, rz_new); });
        real_type beta[W] = {};
        for (int l = 0; l < W; ++l) {
            if (g.active[l]) {
                beta[l] = rz_new[l] / rz[l];
            }
        }
        for (int l = 0; l < W; ++l) {
            ca[l] = g.act[l];
            cb[l] = real_type{0};
            cc[l] = g.active[l] ? beta[l] : real_type{1};
        }
        obs::traced(obs::Phase::update, "update", [&] {
            blas::axpbypcz_lanes<W>(ca, z, cb, z, cc, p, n);
        });
        for (int l = 0; l < W; ++l) {
            if (g.active[l]) {
                rz[l] = rz_new[l];
                g.advance(l);
            }
        }
    }
};

/// Runs one thread's lane group to queue exhaustion: Lanes::width lanes
/// advance through `Lanes::iterate` together, and a retired lane is
/// refilled from `next_system` at the top of the loop.
template <typename Lanes, typename SourceBatch, typename Stop>
void drain_lanes(const SourceBatch& a, const EllSlabPattern& pattern,
                 const BatchVector<real_type>& b, BatchVector<real_type>& x,
                 bool zero_guess, const Stop& stop, int max_iters,
                 Workspace& ws, std::atomic<size_type>& next_system,
                 BatchLogStage& stage, int thread,
                 obs::ConvergenceHistory* history)
{
    constexpr int W = Lanes::width;
    const index_type n = pattern.rows;
    const size_type nbatch = a.num_batch();
    // Slot layout: the algorithm's vectors, then x, b, inv_diag and the
    // slab strip. Workspace slots are contiguous in one allocation, so the
    // strip is one flat array.
    const int first = Lanes::vectors;
    real_type* slab = ws.slot(first + lockstep::group_slots).data;
    lockstep::LaneGroup<W> g{
        n, ws.slot(first).data, ws.slot(first + 1).data,
        ws.slot(first + 2).data,
        {n, pattern.nnz_per_row, pattern.col_idxs.data(), slab, W},
        x, stage, thread, history};
    Lanes lanes(ws);

    // Load the next unsolved system into lane l: pack values / b / x into
    // the lane's columns, then run the algorithm's preamble on them.
    auto refill = [&](int l) -> bool {
        const size_type i = next_system.fetch_add(1);
        if (i >= nbatch) {
            return false;
        }
        obs::ScopedSpan span("lane_refill", "solver",
                             static_cast<std::int64_t>(i));
        g.sys[l] = i;
        const auto src = a.entry(i);
        pack_slab_lane(src, pattern, slab, W, l);
        if constexpr (Lanes::jacobi) {
            lockstep::pack_inv_diag_lane(src, n, g.inv_diag, W, l);
        }
        pack_lane(b.entry(i), LaneGroupView<real_type>{g.bg, n, W}, l);
        g.b_norm[l] = std::sqrt(lockstep::lane_dot(g.bg, g.bg, n, W, l));
        if (zero_guess) {
            zero_lane(LaneGroupView<real_type>{g.xg, n, W}, l);
        } else {
            pack_lane(ConstVecView<real_type>(x.entry(i)),
                      LaneGroupView<real_type>{g.xg, n, W}, l);
        }
        g.r_norm[l] = lanes.setup(g, l);
        g.r0[l] = g.r_norm[l];
        g.iter[l] = 0;
        g.active[l] = true;
        g.act[l] = real_type{1};
        if (history != nullptr) {
            history->record(i, 0, g.r_norm[l]);
        }
        return true;
    };

    while (true) {
        // Top of the lockstep iteration: park converged / exhausted lanes
        // and refill them until each lane either has work or the queue is
        // dry. A freshly refilled system may converge immediately (zero
        // right-hand side with a zero guess), so the checks loop. The
        // scalar kernels' exit rule, loop_exit, retires a lane first, then
        // the algorithm's breakdown check, so a system classifies
        // identically on both paths.
        for (int l = 0; l < W; ++l) {
            for (;;) {
                if (!g.active[l]) {
                    if (!refill(l)) {
                        break;
                    }
                }
                if (const auto exit =
                        loop_exit(stop, g.iter[l], max_iters, g.r_norm[l],
                                  g.b_norm[l], g.r0[l])) {
                    g.finish(l, *exit);
                    continue;
                }
                if (const auto fc = lanes.breakdown(l)) {
                    g.finish(l, {g.iter[l], g.r_norm[l], false, *fc});
                    continue;
                }
                break;
            }
        }
        bool any_active = false;
        for (int l = 0; l < W; ++l) {
            any_active = any_active || g.active[l];
        }
        if (!any_active) {
            break;
        }
        lanes.iterate(g, stop);
    }
}

/// Batch driver for the lockstep path: builds the shared slab pattern,
/// sizes the (separate, rows*W-length) workspace pool, and drains one lane
/// group per OpenMP thread against a shared work queue. Per-entry results
/// are staged per thread and merged into the log afterwards; each thread's
/// phase-tally growth is added to `phases`.
template <typename Lanes, typename SourceBatch, typename Stop>
void run_batch_lockstep(const SourceBatch& a, const BatchVector<real_type>& b,
                        BatchVector<real_type>& x, bool zero_guess,
                        const Stop& stop, int max_iters, WorkspacePool& pool,
                        BatchLog& log, obs::ConvergenceHistory* history,
                        obs::PhaseTally& phases)
{
    const EllSlabPattern pattern = make_slab_pattern(a);
    const int nthreads = lockstep::max_threads();
    pool.require(nthreads, pattern.rows * Lanes::width,
                 Lanes::vectors + lockstep::group_slots +
                     pattern.nnz_per_row);

    BatchLogStage stage(nthreads);
    std::atomic<size_type> next_system{0};
    FirstException failure;
#pragma omp parallel
    {
        // The thread's tally growth over its drain is its part of this
        // solve's phase totals.
        const obs::PhaseTally tally_before = obs::thread_phase_tally();
        failure.run([&] {
            const int thread = lockstep::this_thread();
            // One span per thread covering its whole queue drain: the
            // lane-group analogue of the scalar path's per-entry span.
            obs::ScopedSpan group_span("lockstep_group", "solver",
                                       Lanes::width);
            drain_lanes<Lanes>(a, pattern, b, x, zero_guess, stop, max_iters,
                               pool.at(thread), next_system, stage, thread,
                               history);
        });
#pragma omp critical(bsis_phase_fold)
        phases.add_delta(obs::thread_phase_tally(), tally_before);
    }
    stage.merge_into(log);
    failure.rethrow();
}

}  // namespace bsis
