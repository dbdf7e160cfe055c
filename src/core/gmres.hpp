// Batched restarted GMRES(m) kernel with right preconditioning.
//
// Right preconditioning (solve A M^-1 u = b, x = M^-1 u) keeps the
// monitored residual equal to the TRUE residual, so the per-system stopping
// criteria mean the same thing across all solvers in the library.
#pragma once

#include <cmath>
#include <vector>

#include "blas/kernels.hpp"
#include "core/failure.hpp"
#include "core/residual.hpp"
#include "core/workspace.hpp"
#include "obs/convergence.hpp"
#include "obs/telemetry.hpp"
#include "util/error.hpp"
#include "util/types.hpp"

namespace bsis {

/// Scratch vectors for GMRES(m): w, z, r plus the m+1 Krylov basis vectors.
inline constexpr int gmres_work_vectors(int restart)
{
    return restart + 4;
}

/// Small dense scratch for the Hessenberg least-squares problem; reusable
/// across systems (resize is a no-op after the first call).
struct GmresScratch {
    std::vector<real_type> h;   ///< (m+1) x m Hessenberg, column-major
    std::vector<real_type> cs;  ///< Givens cosines
    std::vector<real_type> sn;  ///< Givens sines
    std::vector<real_type> g;   ///< rotated rhs of the least-squares system
    std::vector<real_type> y;   ///< triangular solve result

    void require(int restart)
    {
        const auto m = static_cast<std::size_t>(restart);
        h.assign((m + 1) * m, 0.0);
        cs.assign(m, 0.0);
        sn.assign(m, 0.0);
        g.assign(m + 1, 0.0);
        y.assign(m, 0.0);
    }
};

/// `history` records the initial residual norm plus the Givens residual
/// estimate |g[j+1]| after every inner iteration (the per-iteration
/// convergence signal GMRES actually steers by; the true residual is only
/// recomputed at restarts, and adds no point).
template <typename MatrixView, typename Prec, typename Stop>
EntryResult gmres_kernel(const MatrixView& a, ConstVecView<real_type> b,
                         VecView<real_type> x, const Prec& prec,
                         const Stop& stop, int max_iters, int restart,
                         Workspace& ws, GmresScratch& scratch,
                         int work_offset = 0, obs::HistorySink history = {})
{
    BSIS_ENSURE_ARG(restart >= 1, "restart must be >= 1");
    auto w = ws.slot(work_offset + 0);
    auto z = ws.slot(work_offset + 1);
    auto r = ws.slot(work_offset + 2);
    const int basis0 = work_offset + 3;
    const auto basis = [&](int i) { return ws.slot(basis0 + i); };

    scratch.require(restart);
    auto& h = scratch.h;
    auto& cs = scratch.cs;
    auto& sn = scratch.sn;
    auto& g = scratch.g;
    auto& y = scratch.y;
    const auto h_at = [&](int i, int j) -> real_type& {
        return h[static_cast<std::size_t>(j) * (restart + 1) + i];
    };

    const real_type b_norm = blas::nrm2(b);
    int total_iters = 0;

    real_type beta = residual(a, b, ConstVecView<real_type>(x), r);
    const real_type r0 = beta;

    history.record(0, beta);
    for (;;) {
        if (const auto exit =
                loop_exit(stop, total_iters, max_iters, beta, b_norm, r0)) {
            return *exit;
        }
        if (beta == real_type{0}) {
            return {total_iters, beta, true, FailureClass::converged};
        }
        // v_0 = r / beta
        obs::traced(obs::Phase::update, "update", [&] {
            blas::copy(ConstVecView<real_type>(r), basis(0));
            blas::scal(real_type{1} / beta, basis(0));
        });
        std::fill(g.begin(), g.end(), real_type{0});
        g[0] = beta;

        int j = 0;
        for (; j < restart && total_iters < max_iters; ++j) {
            obs::traced(obs::Phase::precond, "precond_apply", [&] {
                prec.apply(ConstVecView<real_type>(basis(j)), z);
            });
            obs::traced(obs::Phase::spmv, "spmv",
                        [&] { spmv(a, ConstVecView<real_type>(z), w); });
            // Modified Gram-Schmidt orthogonalization: each h_ij is a
            // reduction sweep, each w -= h_ij v_i an update sweep.
            for (int i = 0; i <= j; ++i) {
                const real_type hij =
                    obs::traced(obs::Phase::reduction, "reduction", [&] {
                        return blas::dot(ConstVecView<real_type>(w),
                                         ConstVecView<real_type>(basis(i)));
                    });
                h_at(i, j) = hij;
                obs::traced(obs::Phase::update, "update", [&] {
                    blas::axpy(-hij, ConstVecView<real_type>(basis(i)), w);
                });
            }
            const real_type h_next = obs::traced(obs::Phase::reduction, "reduction", [&] {
                return blas::nrm2(ConstVecView<real_type>(w));
            });
            h_at(j + 1, j) = h_next;
            if (h_next != real_type{0}) {
                obs::traced(obs::Phase::update, "update", [&] {
                    blas::copy(ConstVecView<real_type>(w), basis(j + 1));
                    blas::scal(real_type{1} / h_next, basis(j + 1));
                });
            }
            // Apply the accumulated Givens rotations to column j, then
            // compute the rotation annihilating h(j+1, j).
            for (int i = 0; i < j; ++i) {
                const real_type tmp = cs[i] * h_at(i, j) + sn[i] * h_at(i + 1, j);
                h_at(i + 1, j) =
                    -sn[i] * h_at(i, j) + cs[i] * h_at(i + 1, j);
                h_at(i, j) = tmp;
            }
            const real_type denom = std::hypot(h_at(j, j), h_at(j + 1, j));
            if (denom == real_type{0}) {
                cs[j] = 1;
                sn[j] = 0;
            } else {
                cs[j] = h_at(j, j) / denom;
                sn[j] = h_at(j + 1, j) / denom;
            }
            h_at(j, j) = cs[j] * h_at(j, j) + sn[j] * h_at(j + 1, j);
            h_at(j + 1, j) = 0;
            g[static_cast<std::size_t>(j) + 1] = -sn[j] * g[j];
            g[static_cast<std::size_t>(j)] *= cs[j];
            ++total_iters;
            const real_type res_est =
                std::abs(g[static_cast<std::size_t>(j) + 1]);
            history.record(total_iters, res_est);
            if (stop.done(res_est, b_norm) || h_next == real_type{0}) {
                ++j;
                break;
            }
        }
        // Solve the j x j triangular system h y = g.
        for (int i = j - 1; i >= 0; --i) {
            real_type sum = g[static_cast<std::size_t>(i)];
            for (int k = i + 1; k < j; ++k) {
                sum -= h_at(i, k) * y[static_cast<std::size_t>(k)];
            }
            y[static_cast<std::size_t>(i)] = sum / h_at(i, i);
        }
        // x += M^-1 (V y)
        obs::traced(obs::Phase::update, "update", [&] {
            blas::fill(w, real_type{0});
            for (int i = 0; i < j; ++i) {
                blas::axpy(y[static_cast<std::size_t>(i)],
                           ConstVecView<real_type>(basis(i)), w);
            }
        });
        obs::traced(obs::Phase::precond, "precond_apply",
                    [&] { prec.apply(ConstVecView<real_type>(w), z); });
        obs::traced(obs::Phase::update, "update", [&] {
            blas::axpy(real_type{1}, ConstVecView<real_type>(z), x);
        });
        // True residual for the restart / convergence decision at the top
        // of the restart loop.
        beta = residual(a, b, ConstVecView<real_type>(x), r);
    }
}

}  // namespace bsis
