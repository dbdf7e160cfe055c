#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "core/bicgstab.hpp"
#include "core/monolithic.hpp"
#include "core/solver.hpp"
#include "core/tuning.hpp"
#include "matrix/conversions.hpp"
#include "matrix/stencil.hpp"
#include "util/rng.hpp"

namespace bsis {
namespace {

/// Workload fixture: a small nonsymmetric, well-conditioned stencil batch
/// with random right-hand sides.
struct Problem {
    BatchCsr<real_type> a;
    BatchVector<real_type> b;

    static Problem make(size_type nbatch, index_type nx = 8,
                        index_type ny = 7,
                        StencilKind kind = StencilKind::nine_point,
                        bool spd = false)
    {
        SyntheticStencilParams params;
        params.seed = 1234;
        if (spd) {
            // CG needs a symmetric positive definite batch.
            params.advection = 0.0;
            params.perturbation = 0.0;
        }
        Problem p{make_synthetic_batch(nx, ny, kind, nbatch, params),
                  BatchVector<real_type>(nbatch, nx * ny)};
        Rng rng(55);
        for (size_type i = 0; i < nbatch; ++i) {
            auto bv = p.b.entry(i);
            for (index_type k = 0; k < bv.len; ++k) {
                bv[k] = rng.uniform(-1.0, 1.0);
            }
        }
        return p;
    }
};

real_type residual_norm(const BatchCsr<real_type>& a, size_type entry,
                        ConstVecView<real_type> x, ConstVecView<real_type> b)
{
    std::vector<real_type> r(static_cast<std::size_t>(b.len));
    spmv(a.entry(entry), x, VecView<real_type>{r.data(), b.len});
    real_type sum = 0;
    for (index_type i = 0; i < b.len; ++i) {
        const real_type d = r[static_cast<std::size_t>(i)] - b[i];
        sum += d * d;
    }
    return std::sqrt(sum);
}

using Composition = std::tuple<SolverType, PrecondType>;

class SolverComposition : public ::testing::TestWithParam<Composition> {};

TEST_P(SolverComposition, ConvergesToAbsoluteTolerance)
{
    const auto [solver, precond] = GetParam();
    // CG requires an SPD batch; Richardson without Jacobi needs a small
    // enough relaxation parameter for the unscaled operator.
    // CG needs SPD; Chebyshev's real-interval theory also wants a
    // symmetric operator; classical BiCG requires a SYMMETRIC
    // preconditioner (M^-T = M^-1), which block-Jacobi only is for
    // symmetric blocks.
    auto p = Problem::make(
        4, 8, 7, StencilKind::nine_point,
        solver == SolverType::cg || solver == SolverType::chebyshev ||
            (solver == SolverType::bicg &&
             precond == PrecondType::block_jacobi));
    BatchVector<real_type> x(4, p.a.rows());
    SolverSettings s;
    s.solver = solver;
    s.precond = precond;
    s.tolerance = 1e-10;
    s.max_iterations = 2000;
    s.richardson_omega = precond == PrecondType::jacobi ? 0.8 : 0.3;
    const auto result = solve_batch(p.a, p.b, x, s);
    EXPECT_TRUE(result.log.all_converged());
    for (size_type i = 0; i < 4; ++i) {
        EXPECT_LT(residual_norm(p.a, i, x.entry(i), p.b.entry(i)), 1e-9)
            << "system " << i;
        EXPECT_GT(result.log.iterations(i), 0);
    }
}

std::string composition_name(
    const ::testing::TestParamInfo<Composition>& info)
{
    std::string name;
    switch (std::get<0>(info.param)) {
    case SolverType::bicgstab: name = "bicgstab"; break;
    case SolverType::bicg: name = "bicg"; break;
    case SolverType::cgs: name = "cgs"; break;
    case SolverType::chebyshev: name = "chebyshev"; break;
    case SolverType::cg: name = "cg"; break;
    case SolverType::gmres: name = "gmres"; break;
    case SolverType::richardson: name = "richardson"; break;
    }
    switch (std::get<1>(info.param)) {
    case PrecondType::identity: name += "_identity"; break;
    case PrecondType::jacobi: name += "_jacobi"; break;
    case PrecondType::block_jacobi: name += "_blockjacobi"; break;
    }
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllCompositions, SolverComposition,
    ::testing::Combine(::testing::Values(SolverType::bicgstab,
                                         SolverType::bicg, SolverType::cgs,
                                         SolverType::cg, SolverType::gmres,
                                         SolverType::richardson,
                                         SolverType::chebyshev),
                       ::testing::Values(PrecondType::identity,
                                         PrecondType::jacobi,
                                         PrecondType::block_jacobi)),
    composition_name);

TEST(SolverFormats, CsrEllDenseGiveSameSolution)
{
    auto p = Problem::make(3);
    auto ell = to_ell(p.a);
    auto dense = to_dense(p.a);
    SolverSettings s;
    s.tolerance = 1e-12;
    s.max_iterations = 500;
    BatchVector<real_type> x_csr(3, p.a.rows());
    BatchVector<real_type> x_ell(3, p.a.rows());
    BatchVector<real_type> x_dense(3, p.a.rows());
    const auto r1 = solve_batch(p.a, p.b, x_csr, s);
    const auto r2 = solve_batch(ell, p.b, x_ell, s);
    const auto r3 = solve_batch(dense, p.b, x_dense, s);
    EXPECT_TRUE(r1.log.all_converged());
    EXPECT_TRUE(r2.log.all_converged());
    EXPECT_TRUE(r3.log.all_converged());
    for (size_type i = 0; i < 3; ++i) {
        for (index_type k = 0; k < p.a.rows(); ++k) {
            EXPECT_NEAR(x_csr.entry(i)[k], x_ell.entry(i)[k], 1e-9);
            EXPECT_NEAR(x_csr.entry(i)[k], x_dense.entry(i)[k], 1e-9);
        }
    }
}

TEST(SolverBehavior, JacobiReducesBicgstabIterations)
{
    // Scale rows to make Jacobi matter: multiply each row by a random
    // positive factor (row scaling leaves the solution intact).
    auto p = Problem::make(2);
    Rng rng(3);
    const auto& ptrs = p.a.row_ptrs();
    for (size_type e = 0; e < 2; ++e) {
        auto bv = p.b.entry(e);
        for (index_type r = 0; r < p.a.rows(); ++r) {
            const real_type scale = std::exp(rng.uniform(-2.0, 2.0));
            for (index_type k = ptrs[r]; k < ptrs[r + 1]; ++k) {
                p.a.values(e)[k] *= scale;
            }
            bv[r] *= scale;
        }
    }
    SolverSettings s;
    s.stop = StopType::rel_residual;
    s.tolerance = 1e-10;
    s.max_iterations = 3000;
    BatchVector<real_type> x(2, p.a.rows());
    s.precond = PrecondType::identity;
    const auto plain = solve_batch(p.a, p.b, x, s);
    s.precond = PrecondType::jacobi;
    const auto prec = solve_batch(p.a, p.b, x, s);
    EXPECT_TRUE(prec.log.all_converged());
    EXPECT_LT(prec.log.total_iterations(), plain.log.total_iterations());
}

TEST(SolverBehavior, RelativeStopMatchesReduction)
{
    auto p = Problem::make(1);
    SolverSettings s;
    s.stop = StopType::rel_residual;
    s.tolerance = 1e-6;
    BatchVector<real_type> x(1, p.a.rows());
    const auto result = solve_batch(p.a, p.b, x, s);
    EXPECT_TRUE(result.log.all_converged());
    real_type b_norm = blas::nrm2(ConstVecView<real_type>(p.b.entry(0)));
    EXPECT_LT(residual_norm(p.a, 0, x.entry(0), p.b.entry(0)),
              1e-6 * b_norm * 1.5);
}

TEST(SolverBehavior, MaxIterationCapIsRespected)
{
    auto p = Problem::make(1);
    SolverSettings s;
    s.tolerance = 1e-30;  // unreachable
    s.max_iterations = 3;
    BatchVector<real_type> x(1, p.a.rows());
    const auto result = solve_batch(p.a, p.b, x, s);
    EXPECT_FALSE(result.log.all_converged());
    EXPECT_LE(result.log.iterations(0), 3);
}

TEST(SolverBehavior, ExactInitialGuessConvergesInZeroIterations)
{
    auto p = Problem::make(1);
    SolverSettings s;
    s.tolerance = 1e-8;
    BatchVector<real_type> x(1, p.a.rows());
    auto first = solve_batch(p.a, p.b, x, s);
    ASSERT_TRUE(first.log.all_converged());
    s.use_initial_guess = true;
    const auto second = solve_batch(p.a, p.b, x, s);
    EXPECT_TRUE(second.log.all_converged());
    EXPECT_EQ(second.log.iterations(0), 0);
}

TEST(SolverBehavior, WarmStartNeverSlowerThanZeroGuess)
{
    auto p = Problem::make(2);
    SolverSettings s;
    s.tolerance = 1e-10;
    BatchVector<real_type> x(2, p.a.rows());
    const auto cold = solve_batch(p.a, p.b, x, s);
    // Perturb the matrix slightly (a Picard-like coefficient update).
    for (size_type e = 0; e < 2; ++e) {
        for (index_type k = 0; k < p.a.nnz_per_entry(); ++k) {
            p.a.values(e)[k] *= 1.0 + 1e-6 * ((k % 3) - 1);
        }
    }
    s.use_initial_guess = true;
    const auto warm = solve_batch(p.a, p.b, x, s);
    EXPECT_TRUE(warm.log.all_converged());
    EXPECT_LT(warm.log.total_iterations(), cold.log.total_iterations());
}

TEST(SolverBehavior, PerSystemConvergenceIsIndependent)
{
    // One easy and one hard system in the same batch must report
    // different iteration counts (Section IV: independent monitoring).
    auto p = Problem::make(2);
    // Make system 1 harder: weaker diagonal.
    const auto& ptrs = p.a.row_ptrs();
    const auto& cols = p.a.col_idxs();
    for (index_type r = 0; r < p.a.rows(); ++r) {
        for (index_type k = ptrs[r]; k < ptrs[r + 1]; ++k) {
            if (cols[k] == r) {
                p.a.values(1)[k] = 1.0 + 0.3 * (p.a.values(1)[k] - 1.0);
            }
        }
    }
    SolverSettings s;
    s.tolerance = 1e-10;
    BatchVector<real_type> x(2, p.a.rows());
    const auto result = solve_batch(p.a, p.b, x, s);
    EXPECT_TRUE(result.log.all_converged());
    EXPECT_NE(result.log.iterations(0), result.log.iterations(1));
    EXPECT_EQ(result.log.max_iterations(),
              std::max(result.log.iterations(0), result.log.iterations(1)));
}

TEST(SolverValidation, RejectsMismatchedBatchSizes)
{
    auto p = Problem::make(2);
    BatchVector<real_type> x(3, p.a.rows());
    EXPECT_THROW(solve_batch(p.a, p.b, x, SolverSettings{}),
                 DimensionMismatch);
}

TEST(SolverValidation, RejectsNegativeSettings)
{
    auto p = Problem::make(1);
    BatchVector<real_type> x(1, p.a.rows());
    SolverSettings s;
    s.max_iterations = -1;
    EXPECT_THROW(solve_batch(p.a, p.b, x, s), BadArgument);
    s.max_iterations = 10;
    s.tolerance = -1e-10;
    EXPECT_THROW(solve_batch(p.a, p.b, x, s), BadArgument);
}

TEST(BatchLogTest, AggregatesAreConsistent)
{
    BatchLog log(3);
    log.record(0, 5, 1e-11, true, FailureClass::converged);
    log.record(1, 30, 2e-11, true, FailureClass::converged);
    log.record(2, 12, 3e-11, true, FailureClass::converged);
    EXPECT_EQ(log.total_iterations(), 47);
    EXPECT_EQ(log.max_iterations(), 30);
    EXPECT_NEAR(log.mean_iterations(), 47.0 / 3.0, 1e-12);
    EXPECT_TRUE(log.all_converged());
    log.record(2, 500, 1e-3, false, FailureClass::max_iters);
    EXPECT_FALSE(log.all_converged());
}

TEST(BatchLogTest, AllConvergedIsVacuouslyTrueForEmptyBatch)
{
    // "No system failed to converge" -- matches the executors' empty
    // early-return, which also reports success.
    EXPECT_TRUE(BatchLog{}.all_converged());
    EXPECT_TRUE(BatchLog(0).all_converged());
    BatchLog one(1);
    EXPECT_FALSE(one.all_converged());  // default-recorded as unconverged
}

TEST(BatchLogStageTest, MergesOutOfOrderRecordsToTheRightSystems)
{
    // Threads finish systems in arbitrary order; the merge must land
    // every staged record at its own system index regardless.
    BatchLogStage stage(3);
    stage.record(2, 4, 40, 4e-11, true, FailureClass::converged);
    stage.record(0, 1, 10, 1e-11, true, FailureClass::converged);
    stage.record(1, 3, 30, 3e-11, false, FailureClass::max_iters);
    stage.record(2, 0, 5, 5e-12, true, FailureClass::converged);
    stage.record(0, 2, 20, 2e-11, true, FailureClass::converged);

    BatchLog log(5);
    stage.merge_into(log);
    EXPECT_EQ(log.iterations(0), 5);
    EXPECT_EQ(log.iterations(1), 10);
    EXPECT_EQ(log.iterations(2), 20);
    EXPECT_EQ(log.iterations(3), 30);
    EXPECT_EQ(log.iterations(4), 40);
    EXPECT_FALSE(log.converged(3));
    EXPECT_TRUE(log.converged(0) && log.converged(1) && log.converged(2) &&
                log.converged(4));
    EXPECT_NEAR(log.residual_norm(4), 4e-11, 1e-20);
}

TEST(BatchLogStageTest, DuplicateRecordsLastWriteWins)
{
    // Within a thread, a later record of the same system supersedes the
    // earlier one; across threads, the higher thread index merges later.
    BatchLogStage stage(2);
    stage.record(0, 0, 3, 1e-3, false, FailureClass::max_iters);
    // Same thread, later record:
    stage.record(0, 0, 7, 1e-11, true, FailureClass::converged);
    stage.record(0, 1, 9, 2e-11, true, FailureClass::converged);
    // Later thread wins on merge:
    stage.record(1, 1, 11, 5e-12, true, FailureClass::converged);

    BatchLog log(2);
    stage.merge_into(log);
    EXPECT_EQ(log.iterations(0), 7);
    EXPECT_TRUE(log.converged(0));
    EXPECT_NEAR(log.residual_norm(0), 1e-11, 1e-20);
    EXPECT_EQ(log.iterations(1), 11);
    EXPECT_NEAR(log.residual_norm(1), 5e-12, 1e-20);
}

TEST(BatchLogStageTest, ThreadBuffersAreCacheLineAligned)
{
    // The whole point of the stage is that neighbouring threads' buffers
    // never share a cache line.
    EXPECT_GE(BatchLogStage::buffer_alignment, 64u);
    EXPECT_EQ(BatchLogStage::buffer_alignment % 64u, 0u);
}

TEST(Monolithic, SolvesAllSystemsOfTheBatch)
{
    auto p = Problem::make(4);
    BatchVector<real_type> x(4, p.a.rows());
    SolverSettings s;
    s.tolerance = 1e-10;
    const auto result = solve_monolithic(p.a, p.b, x, s);
    EXPECT_TRUE(result.converged);
    for (size_type i = 0; i < 4; ++i) {
        EXPECT_LT(residual_norm(p.a, i, x.entry(i), p.b.entry(i)), 1e-8);
    }
}

TEST(Monolithic, GlobalIterationCountAtLeastWorstSystem)
{
    // Section II of the paper: the block-diagonal iteration count is
    // governed by the hardest system.
    auto p = Problem::make(3);
    // Weaken system 2's diagonal to slow its convergence.
    const auto& ptrs = p.a.row_ptrs();
    const auto& cols = p.a.col_idxs();
    for (index_type r = 0; r < p.a.rows(); ++r) {
        for (index_type k = ptrs[r]; k < ptrs[r + 1]; ++k) {
            if (cols[k] == r) {
                p.a.values(2)[k] = 1.0 + 0.25 * (p.a.values(2)[k] - 1.0);
            }
        }
    }
    SolverSettings s;
    s.tolerance = 1e-10;
    BatchVector<real_type> x_batch(3, p.a.rows());
    const auto batched = solve_batch(p.a, p.b, x_batch, s);
    BatchVector<real_type> x_mono(3, p.a.rows());
    const auto mono = solve_monolithic(p.a, p.b, x_mono, s);
    ASSERT_TRUE(batched.log.all_converged());
    ASSERT_TRUE(mono.converged);
    // Batched: total work = sum of per-system iterations; monolithic does
    // its global count on EVERY system.
    const auto mono_work =
        static_cast<std::int64_t>(mono.iterations) * 3;
    EXPECT_GT(mono_work, batched.log.total_iterations());
}

TEST(Tuning, NinePointStencilPicksEll)
{
    auto csr = make_synthetic_batch(32, 31, StencilKind::nine_point, 1, {});
    const auto choice = tune(compute_stats(csr), 32);
    EXPECT_EQ(choice.format, BatchFormat::ell);
    EXPECT_EQ(choice.block_size, 992);  // 992 rows = 31 full warps
    EXPECT_LT(choice.ell_padding_overhead, 0.05);
}

TEST(Tuning, IrregularRowsPickCsr)
{
    // A pattern with one dense row: ELL padding would be ~n per row.
    const index_type n = 64;
    std::vector<index_type> row_ptrs(static_cast<std::size_t>(n) + 1);
    std::vector<index_type> col_idxs;
    row_ptrs[0] = 0;
    for (index_type r = 0; r < n; ++r) {
        if (r == 0) {
            for (index_type c = 0; c < n; ++c) {
                col_idxs.push_back(c);
            }
        } else {
            col_idxs.push_back(r);
        }
        row_ptrs[static_cast<std::size_t>(r) + 1] =
            static_cast<index_type>(col_idxs.size());
    }
    BatchCsr<real_type> batch(1, n, row_ptrs, col_idxs);
    const auto choice = tune(compute_stats(batch), 32);
    EXPECT_EQ(choice.format, BatchFormat::csr);
}

TEST(Tuning, BlockSizesRespectLimits)
{
    EXPECT_EQ(ell_block_size(992, 32), 992);
    EXPECT_EQ(ell_block_size(5, 32), 32);
    EXPECT_EQ(ell_block_size(5000, 32), 1024);
    EXPECT_EQ(ell_block_size(992, 64), 1024);
    EXPECT_EQ(csr_block_size(992, 32), 1024);
    EXPECT_EQ(csr_block_size(4, 32), 128);
}

TEST(SolverBehavior, CgsAndBicgstabAgreeOnSolution)
{
    auto p = Problem::make(2);
    SolverSettings s;
    s.tolerance = 1e-11;
    s.max_iterations = 1000;
    BatchVector<real_type> x_b(2, p.a.rows());
    BatchVector<real_type> x_c(2, p.a.rows());
    s.solver = SolverType::bicgstab;
    const auto rb = solve_batch(p.a, p.b, x_b, s);
    s.solver = SolverType::cgs;
    const auto rc = solve_batch(p.a, p.b, x_c, s);
    ASSERT_TRUE(rb.log.all_converged());
    ASSERT_TRUE(rc.log.all_converged());
    for (size_type i = 0; i < 2; ++i) {
        for (index_type k = 0; k < p.a.rows(); ++k) {
            EXPECT_NEAR(x_b.entry(i)[k], x_c.entry(i)[k], 1e-8);
        }
    }
}

TEST(SolverBehavior, ResidualHistoryIsRecordedAndReachesTolerance)
{
    auto p = Problem::make(1);
    Workspace ws(p.a.rows(), bicgstab_work_vectors + 1);
    BatchVector<real_type> x(1, p.a.rows());
    JacobiPrec prec;
    prec.generate(p.a.entry(0), ws.slot(bicgstab_work_vectors));
    // Room for every iteration boundary, so the recorder keeps them all.
    obs::ConvergenceHistory recorder;
    recorder.reset(1, 512);
    const auto result = bicgstab_kernel(
        p.a.entry(0), p.b.entry(0), x.entry(0), prec,
        AbsResidualStop{1e-10}, 500, ws, 0, {&recorder, 0});
    std::vector<real_type> history;
    for (const auto& point : recorder.points(0)) {
        history.push_back(point.residual);
    }
    ASSERT_TRUE(result.converged);
    // One entry per evaluated iteration boundary, starting at iteration 0.
    EXPECT_GE(static_cast<int>(history.size()), result.iterations);
    EXPECT_GT(history.front(), history.back());
    EXPECT_LT(history.back(), 1e-9);
    // The history's last value is the residual the solver reported (or
    // tighter: the final half-iteration may improve on it).
    EXPECT_LE(result.residual_norm, history.back() * (1 + 1e-12));
}

TEST(WorkProfile, BicgstabCountsMatchAlgorithmOne)
{
    const auto p = work_profile(SolverType::bicgstab);
    EXPECT_EQ(p.spmv_per_iter, 2);
    EXPECT_EQ(p.precond_per_iter, 2);
    EXPECT_EQ(p.dots_per_iter, 6);
}

}  // namespace
}  // namespace bsis
