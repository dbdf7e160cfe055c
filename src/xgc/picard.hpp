// Implicit collision step: backward Euler + Picard iteration.
//
// One collision step advances every system's distribution by dt:
//   (I - dt C(u_k, T_k)) f_{k+1} = f^n,   k = 0, 1, ...
// with the operator coefficients frozen at the moments of the current
// Picard iterate. The paper's proxy app uses 5 Picard iterations and,
// crucially, the previous iterate as the initial guess of the next linear
// solve (Fig. 8 / Table III) -- which is why iterative solvers beat exact
// direct solves here.
//
// The linear solver is injected as a callback so the benchmarks can plug
// in the batched iterative solvers (any format / device model) or the CPU
// dgbsv baseline.
#pragma once

#include <functional>
#include <vector>

#include "core/logger.hpp"
#include "core/solver.hpp"
#include "xgc/workload.hpp"

namespace bsis::xgc {

struct PicardSettings {
    real_type dt = 0.0035;
    int num_iterations = 5;  ///< the paper's Picard count
    /// Use the previous Picard iterate as initial guess of the next
    /// linear solve (true in production; false for the Fig. 8 baseline).
    bool warm_start = true;
    /// Optional early exit: stop when the relative true nonlinear residual
    /// ||f^n - A(x) x|| / ||f^n|| of the current iterate x drops below
    /// this, checked from the second Picard iteration on (0 = always run
    /// num_iterations).
    real_type nonlinear_tol = 0.0;
    /// Apply the XGC-style moment-fixing correction once after the Picard
    /// loop, pinning density/momentum/energy of the accepted step to the
    /// pre-step values (production XGC behavior).
    bool conservation_fix = true;
};

/// Callback solving the batched linear systems of one Picard iteration.
/// `x` carries the initial guess when `warm_start` is set and must return
/// the solution.
using BatchLinearSolver = std::function<BatchLog(
    const BatchCsr<real_type>& a, const BatchVector<real_type>& b,
    BatchVector<real_type>& x, bool warm_start, int picard_index)>;

/// Outcome of one implicit collision step over the whole batch.
struct PicardReport {
    int picard_iterations = 0;
    /// Linear-solver convergence data per Picard iteration (Table III).
    std::vector<BatchLog> linear_logs;
    /// Relative TRUE nonlinear residual ||f^n - A(x) x|| / ||f^n|| at the
    /// last evaluated Picard iterate.
    real_type nonlinear_change = 0.0;
    /// Per-system conservation error (density/momentum/energy) across the
    /// step, AFTER the moment fix when enabled -- the diagnostic tying
    /// solver tolerance to physics fidelity.
    std::vector<real_type> conservation_errors;
    /// Per-system conservation error of the raw linear solutions of the
    /// final Picard iteration, BEFORE any moment fix (shows the
    /// discretization drift the fix removes).
    std::vector<real_type> raw_conservation_errors;
    bool converged = false;

    real_type max_conservation_error() const;

    /// Mean linear iterations over the systems of the given species
    /// (0 = ion, 1 = electron in a two-species workload) at one Picard
    /// iteration; reproduces the rows of Table III.
    double mean_species_iterations(int picard_index, size_type species,
                                   size_type num_species) const;
};

/// Advances the workload's distributions by one implicit collision step.
PicardReport implicit_collision_step(CollisionWorkload& workload,
                                     const PicardSettings& settings,
                                     const BatchLinearSolver& solve);

/// Reference linear solver running the library's batched solver on the
/// host (for examples/tests); honors `base.solver/precond/tolerance`.
BatchLinearSolver make_reference_solver(SolverSettings base);

}  // namespace bsis::xgc
