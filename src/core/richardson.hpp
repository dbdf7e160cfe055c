// Batched (preconditioned) Richardson iteration kernel.
//
// The simplest member of the solver family: x += omega * M^-1 r. Useful as
// a smoother and as the baseline iterative method in the solver-comparison
// example.
#pragma once

#include "blas/kernels.hpp"
#include "core/failure.hpp"
#include "core/residual.hpp"
#include "core/workspace.hpp"
#include "obs/convergence.hpp"
#include "obs/telemetry.hpp"
#include "util/types.hpp"

namespace bsis {

/// Scratch vectors: r, t.
inline constexpr int richardson_work_vectors = 2;

/// `history` records the residual norm at the top of every iteration
/// (same contract as `bicgstab_kernel`).
template <typename MatrixView, typename Prec, typename Stop>
EntryResult richardson_kernel(const MatrixView& a, ConstVecView<real_type> b,
                              VecView<real_type> x, const Prec& prec,
                              const Stop& stop, int max_iters, Workspace& ws,
                              real_type omega = real_type{1},
                              int work_offset = 0,
                              obs::HistorySink history = {})
{
    auto r = ws.slot(work_offset + 0);
    auto t = ws.slot(work_offset + 1);

    const real_type b_norm = blas::nrm2(b);
    real_type r0 = 0;
    for (int iter = 0;; ++iter) {
        const real_type r_norm =
            residual(a, b, ConstVecView<real_type>(x), r);
        if (iter == 0) {
            r0 = r_norm;
        }
        history.record(iter, r_norm);
        if (const auto exit =
                loop_exit(stop, iter, max_iters, r_norm, b_norm, r0)) {
            return *exit;
        }
        obs::traced(obs::Phase::precond, "precond_apply",
                    [&] { prec.apply(ConstVecView<real_type>(r), t); });
        obs::traced(obs::Phase::update, "update",
                    [&] { blas::axpy(omega, ConstVecView<real_type>(t), x); });
    }
}

}  // namespace bsis
