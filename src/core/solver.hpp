// Batched solver driver: the host-side entry point of the library.
//
// Mirrors the paper's kernel call site (Listing 2): the caller picks a
// solver, preconditioner, and stopping criterion at run time; the driver
// dispatches to the compile-time-composed kernel (one fused "kernel
// launch" over the whole batch) and parallelizes over batch entries with
// OpenMP -- each entry is the work of one GPU thread block.
#pragma once

#include "blas/batch_vector.hpp"
#include "core/logger.hpp"
#include "core/precond.hpp"
#include "core/stop.hpp"
#include "core/work_profile.hpp"
#include "matrix/batch_csr.hpp"
#include "matrix/batch_dense.hpp"
#include "matrix/batch_ell.hpp"
#include "matrix/batch_sellp.hpp"
#include "obs/convergence.hpp"
#include "obs/phase.hpp"
#include "util/types.hpp"

namespace bsis {

namespace obs {
class FlightRecorder;
}  // namespace obs

/// Runtime solver composition, the analogue of assembling template
/// arguments in the paper's Listing 2.
struct SolverSettings {
    SolverType solver = SolverType::bicgstab;
    PrecondType precond = PrecondType::jacobi;
    StopType stop = StopType::abs_residual;
    /// Absolute residual threshold, or relative reduction factor when
    /// `stop == StopType::rel_residual`. The paper's evaluation uses an
    /// absolute tolerance of 1e-10 throughout.
    real_type tolerance = 1e-10;
    int max_iterations = 500;
    int gmres_restart = 30;
    int block_jacobi_size = 4;
    real_type richardson_omega = 1.0;
    /// When false, x is zeroed before solving; when true the caller's x is
    /// used as the initial guess (the Picard warm-start of Fig. 8).
    bool use_initial_guess = false;
    /// When false, BiCGStab runs the reference one-sweep-per-BLAS-call
    /// composition instead of the fused single-pass kernels. Only the
    /// fusion A/B benches and tests flip this; results agree to rounding.
    bool fused_kernels = true;
    /// When true, BiCGStab and CG run the pipelined recurrences (Rupp et
    /// al.): per-iteration standalone reductions collapse into one or two
    /// multi-output sweeps and the residual norm / rho are maintained by
    /// single-iteration recurrences anchored to freshly measured values.
    /// A/B-able like `fused_kernels` (and requires it -- the pipelined
    /// variants ARE fused kernels; with `fused_kernels == false` the flag
    /// is ignored). Applies to the scalar, lockstep, and gpusim paths;
    /// other solvers ignore it. Stopping decisions may differ from the
    /// classic kernels by one iteration; failure classification is
    /// structurally identical.
    bool pipelined = false;
    /// SIMD batch-lockstep width: each OpenMP thread advances this many
    /// batch entries through the fused iteration in lockstep over
    /// batch-interleaved storage. 0 (the default) keeps the scalar
    /// one-entry-at-a-time path; requested widths are rounded down to the
    /// supported {2, 4, 8, 16}. The lockstep path covers BiCGStab and CG
    /// with identity or scalar-Jacobi preconditioning on the sparse
    /// formats (CSR / ELL / SELL-P) with fused kernels; any other
    /// composition silently falls back to the scalar path. Both paths run
    /// one algorithm body in one operation order, so each entry's results
    /// match the scalar path's (bit for bit on every tested batch).
    int lockstep_width = 0;
    /// When true, the solve captures each system's residual trajectory
    /// (the residual norm at the top of every iteration) into
    /// `BatchSolveResult::history`, bounded per system by
    /// `convergence_capacity` points via stride decimation. Off by
    /// default: the hot loops then skip the recording branch entirely.
    bool record_convergence = false;
    int convergence_capacity = 64;
    /// When non-null, every system that does not converge is captured as a
    /// replayable bundle (matrix, rhs, initial guess, settings, residual
    /// history) -- see obs::FlightRecorder. The recorder is owned by the
    /// caller and may serve many solves; capture happens after the solve,
    /// off the hot path.
    obs::FlightRecorder* flight_recorder = nullptr;
};

/// Outcome of a batched solve.
struct BatchSolveResult {
    BatchLog log;                ///< per-system iterations / residuals
    double wall_seconds = 0.0;   ///< measured host wall time of the solve
    SolverWorkProfile work;      ///< op counts for the GPU cost model
    /// Residual trajectories; populated (history.active()) only when
    /// `SolverSettings::record_convergence` was set.
    obs::ConvergenceHistory history;
    /// Per-phase span totals of this solve alone: the sum over the
    /// threads that ran it of their tallies' growth during their share of
    /// the work, so a concurrent solve's spans never land here. Zero
    /// while metrics are off.
    obs::PhaseTotals phases;
};

/// Solves every system of the batch: a.entry(i) * x.entry(i) = b.entry(i).
/// Supported BatchMatrix types: BatchCsr, BatchEll, BatchSellp, BatchDense
/// (explicitly instantiated in solver.cpp).
template <typename BatchMatrix>
BatchSolveResult solve_batch(const BatchMatrix& a,
                             const BatchVector<real_type>& b,
                             BatchVector<real_type>& x,
                             const SolverSettings& settings);

}  // namespace bsis
