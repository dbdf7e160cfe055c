// Operation counts of one solver iteration, consumed by the GPU cost model.
//
// The gpusim cost model translates these per-iteration counts (together
// with the matrix shape, the storage configuration, and the device
// characteristics) into a modeled per-block duration for the wave
// scheduler.
#pragma once

#include "core/precond.hpp"
#include "util/types.hpp"

namespace bsis {

enum class SolverType {
    bicgstab,
    bicg,
    cgs,
    cg,
    gmres,
    richardson,
    chebyshev,
};

/// Per-iteration and setup operation counts of a solver composition.
/// "axpys" counts all streaming vector updates (axpy/axpby/copy/fill);
/// "dots" counts block-wide reductions (dot products and norms), which on
/// the GPU serialize behind barrier synchronization. These are OPERATION
/// counts (they fix the flop totals and stay valid for the CPU-node
/// model); the `fused_*` fields below describe how the fused kernel packs
/// those operations into full-vector SWEEPS, which is what the memory-
/// bound GPU cost model prices.
struct SolverWorkProfile {
    double spmv_per_iter = 0;
    double precond_per_iter = 0;
    double dots_per_iter = 0;
    double axpys_per_iter = 0;
    double setup_spmvs = 0;
    double setup_dots = 0;
    double setup_axpys = 0;

    /// Fused-kernel sweep structure (all zero when the solver is not
    /// expressed in fused form; the cost model then falls back to one
    /// sweep per operation count above).
    double fused_update_sweeps = 0;  ///< pure streaming update sweeps/iter
    double fused_norm_update_sweeps = 0;  ///< update sweeps that also
                                          ///< produce a reduction result
    double fused_dot_sweeps = 0;  ///< standalone reduction sweeps/iter
    double fused_extra_dots = 0;  ///< additional reduction results
                                  ///< piggybacked on an existing sweep
                                  ///< (e.g. the dual-dot's second result)
    double fused_extra_dot_vectors = 0;  ///< extra operand vectors read by
                                         ///< the standalone reduction
                                         ///< sweeps beyond the two a plain
                                         ///< dot streams (the pipelined
                                         ///< multi-output sweeps widen
                                         ///< their reads instead of adding
                                         ///< sweeps)
    double fused_extra_combines = 0;  ///< cross-warp combine rounds added
                                      ///< to sweeps that are NOT priced as
                                      ///< reduction sweeps (a dot fused
                                      ///< into an update or precond sweep)

    /// Host slab lane groups only (slab_work_profile; zero for the GPU
    /// model and the width-1 path): SpMV sweeps per iteration that also
    /// produce reduction results, the results beyond one per such sweep,
    /// and the operand vectors those sweeps read beyond the SpMV's own.
    double spmv_dot_sweeps = 0;
    double spmv_extra_dots = 0;
    double spmv_dot_vectors = 0;

    /// SIMD lanes of the host batch-lockstep path: the number of batch
    /// entries one CPU thread advances per iteration over interleaved
    /// layouts. 1 = scalar one-entry-at-a-time path (the GPU model is
    /// unaffected; lanes only rescale the CPU-node throughput).
    int simd_lanes = 1;

    bool has_fused_shape() const
    {
        return fused_update_sweeps + fused_norm_update_sweeps +
                   fused_dot_sweeps >
               0;
    }
};

inline int precond_work_vectors(PrecondType precond,
                                int block_jacobi_size = 4)
{
    switch (precond) {
    case PrecondType::identity:
        return 0;
    case PrecondType::jacobi:
        return 1;
    case PrecondType::block_jacobi:
        // One n x block_size strip of inverted diagonal blocks.
        return block_jacobi_size;
    }
    return 0;
}

/// Builds the work profile of one solver. With `fused` (the default,
/// matching the host kernels since the kernel-fusion PR) the profile also
/// carries the fused sweep structure; `fused = false`
/// describes the reference one-sweep-per-BLAS-call composition, used by
/// the fusion ablations. `pipelined` (BiCGStab / CG only, requires
/// `fused`) switches to the pipelined kernels' sweep structure: fewer
/// standalone reduction sweeps, paid for with wider reduction reads
/// (`fused_extra_dot_vectors`) and combine rounds on non-reduction sweeps
/// (`fused_extra_combines`).
inline SolverWorkProfile work_profile(SolverType solver,
                                      int gmres_restart = 30,
                                      bool fused = true,
                                      bool pipelined = false)
{
    const double prec_ops = 1.0;
    SolverWorkProfile p;
    switch (solver) {
    case SolverType::bicgstab:
        // Algorithm 1: 2 SpMV, 2 preconditioner applications, 6 reductions
        // (||r||, rho, r_hat.v, ||s||, t.s, t.t), ~6 vector updates.
        p = {2, 2 * prec_ops, 6, 6, 1, 1, 3};
        if (fused && pipelined) {
            // Pipelined sweeps: p, x, and r updates (the r norm comes from
            // the recurrence, so its sweep is pure); s update with fused
            // norm; r_hat.v dot plus ONE dot4 sweep reading three vectors
            // (one more than a plain dot) and producing four results.
            p.fused_update_sweeps = 3;
            p.fused_norm_update_sweeps = 1;
            p.fused_dot_sweeps = 2;
            p.fused_extra_dots = 3;
            p.fused_extra_dot_vectors = 1;
        } else if (fused) {
            // Fused sweeps: p and x updates (pure), s and r updates with
            // fused norms, rho / r_hat.v / dual-dot reduction sweeps; the
            // dual-dot's second result rides along.
            p.fused_update_sweeps = 2;
            p.fused_norm_update_sweeps = 2;
            p.fused_dot_sweeps = 3;
            p.fused_extra_dots = 1;
        }
        break;
    case SolverType::cgs:
        // 2 SpMV, 2 preconditioner applications, 3 reductions (rho,
        // sigma, ||r||), ~8 vector updates.
        p = {2, 2 * prec_ops, 3, 8, 1, 1, 2};
        if (fused) {
            // u, p, q, t, x single-pass updates; r update with fused norm;
            // rho and sigma reduction sweeps.
            p.fused_update_sweeps = 5;
            p.fused_norm_update_sweeps = 1;
            p.fused_dot_sweeps = 2;
        }
        break;
    case SolverType::bicg:
        // 1 SpMV + 1 transpose SpMV, 2 preconditioner applications,
        // 3 reductions (rho, p_hat.q, ||r||), ~6 vector updates.
        p = {2, 2 * prec_ops, 3, 6, 1, 2, 4};
        if (fused) {
            // x, r_hat, and the paired p/p_hat updates (shared-scalar
            // loop, still two vectors of traffic); r update with fused
            // norm; rho and p_hat.q reduction sweeps.
            p.fused_update_sweeps = 4;
            p.fused_norm_update_sweeps = 1;
            p.fused_dot_sweeps = 2;
        }
        break;
    case SolverType::cg:
        p = {1, prec_ops, 3, 3, 1, 2, 2};
        if (fused && pipelined) {
            // Pipelined sweeps: x, r, p updates (all pure -- the norm is
            // recurrence-maintained); ONE dot3_nrm2_lanes sweep reading three
            // vectors and producing four results; the r.z dot rides the
            // preconditioner sweep as an extra combine round.
            p.fused_update_sweeps = 3;
            p.fused_norm_update_sweeps = 0;
            p.fused_dot_sweeps = 1;
            p.fused_extra_dots = 3;
            p.fused_extra_dot_vectors = 1;
            p.fused_extra_combines = 1;
        } else if (fused) {
            // x and p updates; r update with fused norm; p.q and r.z
            // reduction sweeps.
            p.fused_update_sweeps = 2;
            p.fused_norm_update_sweeps = 1;
            p.fused_dot_sweeps = 2;
        }
        break;
    case SolverType::gmres: {
        // Average inner step: MGS against j+1 basis vectors, j ~ m/2.
        // Not expressed in fused form: MGS serializes dot/axpy pairs.
        const double avg_orth = gmres_restart / 2.0 + 1.0;
        p = {1, prec_ops, avg_orth + 1, avg_orth + 1, 1, 1, 2};
        break;
    }
    case SolverType::richardson:
        p = {1, prec_ops, 1, 2, 0, 0, 0};
        break;
    case SolverType::chebyshev:
        // Reduction-free apart from the optional residual check.
        p = {1, prec_ops, 1, 3, 1, 1, 1};
        break;
    }
    return p;
}

/// The fused profile `p` of `solver` as the host's slab lane groups
/// (lockstep width > 1) sweep it, for the host's work ledger, which
/// charges each dot to the phase of the sweep that computes it. Pipelined
/// BiCGStab computes r_hat.v and its dot4 inside its two SpMV sweeps
/// (LaneGroup::spmv_dot, ::spmv_dot4), which read r_hat, and s and r_hat,
/// beside the vector they produce; pipelined CG's r.z is a reduction sweep
/// of its own after the preconditioner (LaneGroup::precond_dot). The GPU
/// model and the width-1 path keep `p`.
inline SolverWorkProfile slab_work_profile(SolverWorkProfile p,
                                           SolverType solver,
                                           bool pipelined)
{
    if (pipelined && solver == SolverType::bicgstab) {
        p.spmv_dot_sweeps = p.fused_dot_sweeps;
        p.spmv_extra_dots = p.fused_extra_dots;
        p.spmv_dot_vectors = p.fused_dot_sweeps + p.fused_extra_dot_vectors;
        p.fused_dot_sweeps = 0;
        p.fused_extra_dots = 0;
        p.fused_extra_dot_vectors = 0;
    } else if (pipelined && solver == SolverType::cg) {
        p.fused_dot_sweeps += p.fused_extra_combines;
        p.fused_extra_combines = 0;
    }
    return p;
}

}  // namespace bsis
