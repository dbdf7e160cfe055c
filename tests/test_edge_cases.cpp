// Edge cases and failure injection across modules: degenerate shapes,
// singular inputs, breakdown paths, and limits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/monolithic.hpp"
#include "core/solver.hpp"
#include "core/workspace.hpp"
#include "exec/executor.hpp"
#include "lapack/banded_lu.hpp"
#include "matrix/conversions.hpp"
#include "matrix/stencil.hpp"
#include "util/rng.hpp"

namespace bsis {
namespace {

BatchCsr<real_type> identity_batch(size_type nbatch, index_type n)
{
    std::vector<index_type> row_ptrs(static_cast<std::size_t>(n) + 1);
    std::vector<index_type> col_idxs(static_cast<std::size_t>(n));
    for (index_type i = 0; i <= n; ++i) {
        row_ptrs[static_cast<std::size_t>(i)] = i;
    }
    for (index_type i = 0; i < n; ++i) {
        col_idxs[static_cast<std::size_t>(i)] = i;
    }
    BatchCsr<real_type> batch(nbatch, n, row_ptrs, col_idxs);
    for (size_type b = 0; b < nbatch; ++b) {
        for (index_type i = 0; i < n; ++i) {
            batch.values(b)[i] = 1.0;
        }
    }
    return batch;
}

TEST(EdgeCases, EmptyBatchSolveIsANoop)
{
    auto a = identity_batch(0, 4);
    BatchVector<real_type> b(0, 4);
    BatchVector<real_type> x(0, 4);
    const auto result = solve_batch(a, b, x, SolverSettings{});
    EXPECT_EQ(result.log.num_batch(), 0);
    // Vacuously true: no system failed to converge, consistent with the
    // executors' empty-batch early-return reporting success.
    EXPECT_TRUE(result.log.all_converged());
    // The lockstep path builds its slab pattern from the shared pattern
    // alone, in every sparse format.
    SolverSettings lanes;
    lanes.lockstep_width = 4;
    EXPECT_TRUE(solve_batch(a, b, x, lanes).log.all_converged());
    EXPECT_TRUE(solve_batch(to_ell(a), b, x, lanes).log.all_converged());
    EXPECT_TRUE(
        solve_batch(to_sellp(a, 2), b, x, lanes).log.all_converged());
}

TEST(EdgeCases, OneByOneSystems)
{
    auto a = identity_batch(3, 1);
    a.values(1)[0] = 4.0;
    BatchVector<real_type> b(3, 1, 2.0);
    BatchVector<real_type> x(3, 1);
    SolverSettings s;
    s.tolerance = 1e-14;
    const auto result = solve_batch(a, b, x, s);
    EXPECT_TRUE(result.log.all_converged());
    EXPECT_DOUBLE_EQ(x.entry(0)[0], 2.0);
    EXPECT_DOUBLE_EQ(x.entry(1)[0], 0.5);
}

TEST(EdgeCases, ZeroRhsGivesZeroSolutionInZeroIterations)
{
    auto a = make_synthetic_batch(6, 5, StencilKind::nine_point, 2, {});
    BatchVector<real_type> b(2, a.rows(), 0.0);
    BatchVector<real_type> x(2, a.rows(), 7.0);  // garbage, zeroed inside
    SolverSettings s;
    s.tolerance = 1e-12;
    const auto result = solve_batch(a, b, x, s);
    EXPECT_TRUE(result.log.all_converged());
    for (size_type i = 0; i < 2; ++i) {
        EXPECT_EQ(result.log.iterations(i), 0);
        for (index_type k = 0; k < a.rows(); ++k) {
            EXPECT_EQ(x.entry(i)[k], 0.0);
        }
    }
}

TEST(EdgeCases, MaxIterationsZeroReportsInitialResidual)
{
    auto a = make_synthetic_batch(6, 5, StencilKind::nine_point, 1, {});
    BatchVector<real_type> b(1, a.rows(), 1.0);
    BatchVector<real_type> x(1, a.rows());
    SolverSettings s;
    s.max_iterations = 0;
    s.tolerance = 1e-12;
    const auto result = solve_batch(a, b, x, s);
    EXPECT_FALSE(result.log.all_converged());
    EXPECT_EQ(result.log.iterations(0), 0);
    EXPECT_GT(result.log.residual_norm(0), 0.0);
}

TEST(EdgeCases, JacobiThrowsOnZeroDiagonal)
{
    auto a = identity_batch(1, 4);
    a.values(0)[2] = 0.0;
    BatchVector<real_type> b(1, 4, 1.0);
    BatchVector<real_type> x(1, 4);
    SolverSettings s;
    s.precond = PrecondType::jacobi;
    EXPECT_THROW(solve_batch(a, b, x, s), NumericalBreakdown);
}

/// A tridiagonal batch (diagonal 4, off-diagonals -1) whose row
/// `no_diag_row` has only its off-diagonal slots (-1: every row has one).
BatchCsr<real_type> tridiagonal_batch(size_type nbatch, index_type n,
                                      index_type no_diag_row)
{
    std::vector<index_type> row_ptrs{0};
    std::vector<index_type> col_idxs;
    for (index_type r = 0; r < n; ++r) {
        for (index_type c = std::max(r - 1, index_type{0});
             c <= std::min(r + 1, n - 1); ++c) {
            if (c != r || r != no_diag_row) {
                col_idxs.push_back(c);
            }
        }
        row_ptrs.push_back(static_cast<index_type>(col_idxs.size()));
    }
    BatchCsr<real_type> batch(nbatch, n, row_ptrs, col_idxs);
    for (size_type b = 0; b < nbatch; ++b) {
        for (index_type q = 0; q < row_ptrs.back(); ++q) {
            batch.values(b)[q] = 4.0;
        }
        for (index_type r = 0; r < n; ++r) {
            for (index_type q = row_ptrs[r]; q < row_ptrs[r + 1]; ++q) {
                if (col_idxs[q] != r) {
                    batch.values(b)[q] = -1.0;
                }
            }
        }
    }
    return batch;
}

/// Expects the Jacobi BiCGStab solve of `a` to throw NumericalBreakdown
/// on the scalar path and on lockstep lanes of width 4 and 8, for `a` in
/// CSR, ELL and SELL-P.
void expect_jacobi_breakdown_on_every_path(const BatchCsr<real_type>& a)
{
    const auto ell = to_ell(a);
    const auto sellp = to_sellp(a, 4);
    const BatchVector<real_type> b(a.num_batch(), a.rows(), 1.0);
    // The healthy twin of `a` checks that each width runs lockstep lanes.
    const auto healthy = tridiagonal_batch(a.num_batch(), a.rows(), -1);
    for (const int width : {0, 4, 8}) {
        SCOPED_TRACE(testing::Message() << "width " << width);
        SolverSettings s;
        s.precond = PrecondType::jacobi;
        s.lockstep_width = width;
        BatchVector<real_type> x(a.num_batch(), a.rows());
        ASSERT_EQ(solve_batch(healthy, b, x, s).work.simd_lanes,
                  std::max(width, 1));
        EXPECT_THROW(solve_batch(a, b, x, s), NumericalBreakdown) << "CSR";
        EXPECT_THROW(solve_batch(ell, b, x, s), NumericalBreakdown) << "ELL";
        EXPECT_THROW(solve_batch(sellp, b, x, s), NumericalBreakdown)
            << "SELL-P";
    }
}

TEST(EdgeCases, LockstepJacobiThrowsOnZeroDiagonal)
{
    // One system of the batch has a zero on row 3's diagonal: the lane
    // that loads it must throw, as JacobiPrec does on the scalar path.
    auto a = tridiagonal_batch(10, 6, -1);
    const auto& ptrs = a.row_ptrs();
    for (index_type q = ptrs[3]; q < ptrs[4]; ++q) {
        if (a.col_idxs()[q] == 3) {
            a.values(5)[q] = 0.0;
        }
    }
    expect_jacobi_breakdown_on_every_path(a);
}

TEST(EdgeCases, LockstepJacobiThrowsOnRowWithoutDiagonalSlot)
{
    // Row 2 of the shared pattern has no diagonal slot, so its diagonal
    // is zero in every system.
    expect_jacobi_breakdown_on_every_path(tridiagonal_batch(10, 6, 2));
}

TEST(EdgeCases, BicgstabReportsBreakdownOnSingularSystem)
{
    // Singular matrix (one zero row): no preconditioner, BiCGStab must
    // terminate without converging rather than loop forever or crash.
    auto a = identity_batch(1, 4);
    a.values(0)[1] = 0.0;  // row 1 entirely zero
    BatchVector<real_type> b(1, 4, 1.0);
    BatchVector<real_type> x(1, 4);
    SolverSettings s;
    s.precond = PrecondType::identity;
    s.max_iterations = 50;
    const auto result = solve_batch(a, b, x, s);
    EXPECT_FALSE(result.log.all_converged());
    EXPECT_TRUE(std::isfinite(result.log.residual_norm(0)));
}

TEST(EdgeCases, NanRhsDoesNotHangAnySolver)
{
    auto a = make_synthetic_batch(6, 5, StencilKind::nine_point, 1, {});
    BatchVector<real_type> b(1, a.rows(), 1.0);
    b.entry(0)[3] = std::numeric_limits<real_type>::quiet_NaN();
    for (const auto solver : {SolverType::bicgstab, SolverType::cgs,
                              SolverType::gmres, SolverType::richardson}) {
        BatchVector<real_type> x(1, a.rows());
        SolverSettings s;
        s.solver = solver;
        s.max_iterations = 20;
        const auto result = solve_batch(a, b, x, s);
        EXPECT_FALSE(result.log.converged(0))
            << "solver " << static_cast<int>(solver);
    }
}

TEST(EdgeCases, MonolithicEmptyAndSingleEntryBatches)
{
    auto a = make_synthetic_batch(6, 5, StencilKind::nine_point, 1, {});
    BatchVector<real_type> b(1, a.rows(), 1.0);
    BatchVector<real_type> x(1, a.rows());
    SolverSettings s;
    s.tolerance = 1e-10;
    const auto result = solve_monolithic(a, b, x, s);
    EXPECT_TRUE(result.converged);
    // With a single entry, the monolithic solve IS the per-system solve.
    BatchVector<real_type> x_ref(1, a.rows());
    solve_batch(a, b, x_ref, s);
    for (index_type k = 0; k < a.rows(); ++k) {
        EXPECT_NEAR(x.entry(0)[k], x_ref.entry(0)[k], 1e-8);
    }
}

TEST(EdgeCases, BandedSolversHandleDiagonalMatrices)
{
    // kl = ku = 0: pure diagonal systems through the banded machinery.
    BatchBanded<real_type> banded(2, 5, 0, 0);
    for (size_type b = 0; b < 2; ++b) {
        auto v = banded.entry(b);
        for (index_type i = 0; i < 5; ++i) {
            v(i, i) = 2.0 + i + b;
        }
    }
    std::vector<real_type> rhs{2, 3, 4, 5, 6};
    auto x = rhs;
    lapack::gbsv(banded.entry(0), VecView<real_type>{x.data(), 5});
    for (index_type i = 0; i < 5; ++i) {
        EXPECT_NEAR(x[static_cast<std::size_t>(i)],
                    rhs[static_cast<std::size_t>(i)] / (2.0 + i), 1e-14);
    }
}

TEST(EdgeCases, GpuExecutorHandlesSingleSystemBatch)
{
    auto a = make_synthetic_batch(6, 5, StencilKind::nine_point, 1, {});
    auto ell = to_ell(a);
    BatchVector<real_type> b(1, a.rows(), 1.0);
    BatchVector<real_type> x(1, a.rows());
    SimGpuExecutor exec(gpusim::mi100());
    SolverSettings s;
    s.tolerance = 1e-10;
    const auto report = exec.solve(ell, b, x, s);
    EXPECT_TRUE(report.log.all_converged());
    EXPECT_EQ(report.num_waves, 1);
    EXPECT_GT(report.kernel_seconds, 0.0);
}

TEST(EdgeCases, RelativeStopWithZeroRhsTerminatesImmediately)
{
    auto a = make_synthetic_batch(6, 5, StencilKind::nine_point, 1, {});
    BatchVector<real_type> b(1, a.rows(), 0.0);
    BatchVector<real_type> x(1, a.rows());
    SolverSettings s;
    s.stop = StopType::rel_residual;
    s.tolerance = 1e-8;
    s.max_iterations = 10;
    const auto result = solve_batch(a, b, x, s);
    // ||r|| = 0 < tol * 0 is false; the solver must still terminate at the
    // iteration cap without dividing by zero or hanging.
    EXPECT_LE(result.log.iterations(0), 10);
    EXPECT_TRUE(std::isfinite(result.log.residual_norm(0)));
}

TEST(EdgeCases, BatchDriversPropagateExceptionsAcrossOpenMp)
{
    // A singular entry anywhere in the batch must surface as a thrown
    // NumericalBreakdown (not a process abort) from the batched driver.
    BatchBanded<real_type> banded(3, 4, 1, 1);
    for (size_type b = 0; b < 3; ++b) {
        auto v = banded.entry(b);
        for (index_type i = 0; i < 4; ++i) {
            v(i, i) = b == 1 ? 0.0 : 2.0;  // entry 1 singular
        }
    }
    BatchVector<real_type> x(3, 4, 1.0);
    EXPECT_THROW(lapack::batch_gbsv(banded, x), NumericalBreakdown);
}

TEST(EdgeCases, WorkspaceShapeTracksRequestStorageNeverShrinks)
{
    // The logical shape must follow every request exactly -- slots are
    // handed to kernels as full-length views, so a smaller solve after a
    // bigger one must get exactly-sized slots, not high-water-mark ones.
    Workspace ws(10, 2);
    const auto* storage = ws.slot(0).data;
    ws.require(5, 1);
    EXPECT_EQ(ws.length(), 5);
    EXPECT_EQ(ws.num_slots(), 1);
    EXPECT_EQ(ws.slot(0).len, 5);
    // ...but shrinking requests reuse the existing storage.
    EXPECT_EQ(ws.slot(0).data, storage);
    ws.require(20, 4);
    EXPECT_EQ(ws.length(), 20);
    EXPECT_EQ(ws.num_slots(), 4);
    auto v = ws.slot(3);
    EXPECT_EQ(v.len, 20);
}

TEST(EdgeCases, WorkspacePoolSlotsStartOnCacheLines)
{
    // A lockstep group's slots are rows * W elements long. With the
    // storage on a cache line, every slot -- and so every W-lane row of
    // it -- starts on one, before and after the pool grows.
    for (const int width : {8, 16}) {
        SCOPED_TRACE(testing::Message() << "width " << width);
        WorkspacePool pool;
        const auto expect_aligned = [&] {
            for (int t = 0; t < pool.num_threads(); ++t) {
                Workspace& ws = pool.at(t);
                for (int i = 0; i < ws.num_slots(); ++i) {
                    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(
                                  ws.slot(i).data) % 64,
                              0u)
                        << "thread " << t << " slot " << i;
                }
            }
        };
        pool.require(2, 992 * width, 13);
        expect_aligned();
        pool.require(3, 992 * width, 21);
        expect_aligned();
    }
}

}  // namespace
}  // namespace bsis
