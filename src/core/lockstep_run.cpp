// The lockstep path: dispatch over algorithm, variant and width, and every
// lane-driver instantiation. bsis_core compiles this file twice, once per
// instruction-set copy (core/lockstep_run.hpp); everything it instantiates
// is named after its copy (util/isa.hpp).
#include "core/lockstep_run.hpp"

#include "core/bicgstab.hpp"
#include "core/cg.hpp"
#include "core/lockstep.hpp"
#include "core/stop.hpp"
#include "matrix/batch_csr.hpp"
#include "matrix/batch_ell.hpp"
#include "matrix/batch_sellp.hpp"

namespace bsis {
inline namespace BSIS_ISA_NAMESPACE {

namespace {

/// Runs the batch with lane algorithm Lanes<LaneGroup<width, Jacobi>,
/// Pipelined>: the one place that lists the instantiated widths.
template <template <typename, bool> class Lanes, bool Jacobi,
          bool Pipelined, typename BatchMatrix, typename Stop>
void run_lockstep_width(const BatchMatrix& a, const BatchVector<real_type>& b,
                        BatchVector<real_type>& x,
                        const SolverSettings& settings, int width,
                        const Stop& stop, WorkspacePool& pool, BatchLog& log,
                        obs::ConvergenceHistory* history,
                        obs::PhaseTally& phases)
{
    const bool zero_guess = !settings.use_initial_guess;
    const int max_iters = settings.max_iterations;
    switch (width) {
    case 2:
        run_batch_lockstep<Lanes<lockstep::LaneGroup<2, Jacobi>, Pipelined>>(
            a, b, x, zero_guess, stop, max_iters, pool, log, history,
            phases);
        break;
    case 4:
        run_batch_lockstep<Lanes<lockstep::LaneGroup<4, Jacobi>, Pipelined>>(
            a, b, x, zero_guess, stop, max_iters, pool, log, history,
            phases);
        break;
    case 8:
        run_batch_lockstep<Lanes<lockstep::LaneGroup<8, Jacobi>, Pipelined>>(
            a, b, x, zero_guess, stop, max_iters, pool, log, history,
            phases);
        break;
    default:
        run_batch_lockstep<
            Lanes<lockstep::LaneGroup<16, Jacobi>, Pipelined>>(
            a, b, x, zero_guess, stop, max_iters, pool, log, history,
            phases);
        break;
    }
}

/// Runs the batch with the lane algorithm of the settings' solver and
/// variant.
template <bool Jacobi, typename BatchMatrix, typename Stop>
void run_lockstep_lanes(const BatchMatrix& a, const BatchVector<real_type>& b,
                        BatchVector<real_type>& x,
                        const SolverSettings& settings, int width,
                        const Stop& stop, WorkspacePool& pool, BatchLog& log,
                        obs::ConvergenceHistory* history,
                        obs::PhaseTally& phases)
{
    if (settings.solver == SolverType::cg) {
        if (settings.pipelined) {
            run_lockstep_width<CgLanes, Jacobi, true>(
                a, b, x, settings, width, stop, pool, log, history, phases);
        } else {
            run_lockstep_width<CgLanes, Jacobi, false>(
                a, b, x, settings, width, stop, pool, log, history, phases);
        }
    } else if (settings.pipelined) {
        run_lockstep_width<BicgstabLanes, Jacobi, true>(
            a, b, x, settings, width, stop, pool, log, history, phases);
    } else {
        run_lockstep_width<BicgstabLanes, Jacobi, false>(
            a, b, x, settings, width, stop, pool, log, history, phases);
    }
}

}  // namespace

template <typename BatchMatrix, typename Stop>
void run_lockstep(const BatchMatrix& a, const BatchVector<real_type>& b,
                  BatchVector<real_type>& x, const SolverSettings& settings,
                  int width, const Stop& stop, WorkspacePool& pool,
                  BatchLog& log, obs::ConvergenceHistory* history,
                  obs::PhaseTally& phases)
{
    if (settings.precond == PrecondType::jacobi) {
        run_lockstep_lanes<true>(a, b, x, settings, width, stop, pool, log,
                                 history, phases);
    } else {
        run_lockstep_lanes<false>(a, b, x, settings, width, stop, pool, log,
                                  history, phases);
    }
}

#define BSIS_INSTANTIATE_RUN_LOCKSTEP(BatchMatrix, Stop)                   \
    template void run_lockstep<BatchMatrix, Stop>(                         \
        const BatchMatrix&, const BatchVector<real_type>&,                 \
        BatchVector<real_type>&, const SolverSettings&, int, const Stop&,  \
        WorkspacePool&, BatchLog&, obs::ConvergenceHistory*,               \
        obs::PhaseTally&)

BSIS_INSTANTIATE_RUN_LOCKSTEP(BatchCsr<real_type>, AbsResidualStop);
BSIS_INSTANTIATE_RUN_LOCKSTEP(BatchCsr<real_type>, RelResidualStop);
BSIS_INSTANTIATE_RUN_LOCKSTEP(BatchEll<real_type>, AbsResidualStop);
BSIS_INSTANTIATE_RUN_LOCKSTEP(BatchEll<real_type>, RelResidualStop);
BSIS_INSTANTIATE_RUN_LOCKSTEP(BatchSellp<real_type>, AbsResidualStop);
BSIS_INSTANTIATE_RUN_LOCKSTEP(BatchSellp<real_type>, RelResidualStop);

}  // inline namespace BSIS_ISA_NAMESPACE
}  // namespace bsis
