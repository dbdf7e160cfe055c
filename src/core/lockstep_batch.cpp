// The lockstep path's shared batch state, compiled once at the baseline
// ISA for both copies of the lane drivers (core/lockstep_run.hpp).
#include "core/lockstep.hpp"

namespace bsis {

template <typename SourceBatch>
LockstepBatch::LockstepBatch(const SourceBatch& a, WorkspacePool& pool,
                             int width, int slots)
    : pattern(make_slab_pattern(a)), stage_(lockstep::max_threads())
{
    pool.require(lockstep::max_threads(), pattern.rows * width,
                 slots + pattern.nnz_per_row);
}

template LockstepBatch::LockstepBatch(const BatchCsr<real_type>&,
                                      WorkspacePool&, int, int);
template LockstepBatch::LockstepBatch(const BatchEll<real_type>&,
                                      WorkspacePool&, int, int);
template LockstepBatch::LockstepBatch(const BatchSellp<real_type>&,
                                      WorkspacePool&, int, int);

LockstepBatch::~LockstepBatch() = default;

void LockstepBatch::record(int thread, size_type system, const EntryResult& e)
{
    stage_.record(thread, system, e.iterations, e.residual_norm, e.converged,
                  e.failure);
}

void LockstepBatch::finish(BatchLog& log)
{
    stage_.merge_into(log);
    failure.rethrow();
}

}  // namespace bsis
