// The lockstep path's entries, one per instruction-set copy (internal).
//
// core/lockstep_run.cpp dispatches a lockstep solve over algorithm, variant
// and width to the lane drivers (`run_batch_lockstep`). bsis_core compiles
// it twice (util/isa.hpp): `isa_base::run_lockstep` at the baseline x86-64
// ISA, and -- where the target is x86-64 and the compiler accepts the flag,
// which defines BSIS_WIDE_LANES -- `isa_v4::run_lockstep` at
// -march=x86-64-v4 -ffp-contract=off. solve_batch runs the wide copy when
// the CPU supports x86-64-v4 and the baseline copy otherwise. Both give the
// same bits: nothing is contracted into an FMA, and each lane's reductions
// keep their element order at any vector width.
//
// solve_batch is the public entry; the lockstep tests call both copies
// directly through this header.
#pragma once

#include "core/solver.hpp"
#include "core/workspace.hpp"
#include "util/types.hpp"

namespace bsis {

/// The instruction-set level a solve's kernels ran at.
enum class IsaLevel {
    x86_64,     ///< baseline: every kernel without a wide copy, and all
                ///< of them on a CPU without v4
    x86_64_v4,  ///< AVX-512: the wide copy of the lockstep lane drivers,
                ///< or the width-1 path's row-block SpMV
};

/// "x86-64" or "x86-64-v4", as GCC's -march names the levels.
const char* isa_name(IsaLevel level);

/// The level the wide copy's kernels (the lockstep lane drivers, the
/// row-block SpMV) run at in this process: x86-64-v4 when the wide copy is
/// built and the CPU supports it, else x86-64. Decided once per process.
IsaLevel lockstep_isa();

/// Solves the batch with the settings' solver (BiCGStab or CG),
/// preconditioner (identity or Jacobi) and variant on `width`-lane groups
/// (2, 4, 8 or 16), one per OpenMP thread, drawing their workspaces from
/// `pool`. The lockstep path runs fused kernels only, so
/// `settings.pipelined` is the variant. Instantiated for the lockstep
/// formats (BatchCsr, BatchEll, BatchSellp) and both stop types.
inline namespace isa_base {
template <typename BatchMatrix, typename Stop>
void run_lockstep(const BatchMatrix& a, const BatchVector<real_type>& b,
                  BatchVector<real_type>& x, const SolverSettings& settings,
                  int width, const Stop& stop, WorkspacePool& pool,
                  BatchLog& log, obs::ConvergenceHistory* history,
                  obs::PhaseTally& phases);
}  // inline namespace isa_base

/// The same at x86-64-v4; defined only where BSIS_WIDE_LANES is.
inline namespace isa_v4 {
template <typename BatchMatrix, typename Stop>
void run_lockstep(const BatchMatrix& a, const BatchVector<real_type>& b,
                  BatchVector<real_type>& x, const SolverSettings& settings,
                  int width, const Stop& stop, WorkspacePool& pool,
                  BatchLog& log, obs::ConvergenceHistory* history,
                  obs::PhaseTally& phases);
}  // inline namespace isa_v4

}  // namespace bsis
