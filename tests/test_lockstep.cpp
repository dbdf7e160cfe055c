// Tests for the SIMD batch-lockstep execution path: per-entry equivalence
// with the scalar path across widths and formats, degenerate batch shapes
// (fewer systems than lanes, ragged tails, empty batches, instantly
// converged lanes beside iterating lane-mates), warm starts, relative
// stopping, a diagonal repeated in the pattern, the fallback rules for
// unsupported compositions, bitwise-equal convergence histories, and the
// wide (x86-64-v4) copy of the lane drivers against the baseline copy.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/forensics.hpp"
#include "core/lockstep_run.hpp"
#include "core/solver.hpp"
#include "io/matrix_market.hpp"
#include "matrix/conversions.hpp"
#include "matrix/stencil.hpp"
#include "util/rng.hpp"

namespace bsis {
namespace {

struct Problem {
    BatchCsr<real_type> a;
    BatchVector<real_type> b;

    static Problem make(size_type nbatch, index_type nx = 8,
                        index_type ny = 7, bool spd = false,
                        unsigned rhs_seed = 55)
    {
        SyntheticStencilParams params;
        params.seed = 1234;
        if (spd) {
            params.advection = 0.0;
            params.perturbation = 0.0;
        }
        Problem p{make_synthetic_batch(nx, ny, StencilKind::nine_point,
                                       nbatch, params),
                  BatchVector<real_type>(nbatch, nx * ny)};
        Rng rng(rhs_seed);
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

/// True when a and b have the same bits (NaN residuals included).
bool same_bits(real_type a, real_type b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Solves the same batch on the scalar path (the width-1 lane group) and on
/// `width` lanes, from `guess` when given, and checks that both ran one
/// algorithm: converged flags, iteration counts, residual norms, failure
/// classes and solutions equal bit for bit. A converged lockstep solution
/// must also have a truly small residual.
template <typename BatchMatrix>
void expect_lockstep_matches_scalar(
    const BatchCsr<real_type>& csr, const BatchMatrix& a,
    const BatchVector<real_type>& b, SolverSettings settings, int width,
    const BatchVector<real_type>* guess = nullptr)
{
    const size_type nbatch = a.num_batch();
    BatchVector<real_type> x_scalar(nbatch, a.rows());
    if (guess != nullptr) {
        x_scalar = *guess;
        settings.use_initial_guess = true;
    }
    BatchVector<real_type> x_lock = x_scalar;
    settings.lockstep_width = 0;
    const auto scalar = solve_batch(a, b, x_scalar, settings);
    settings.lockstep_width = width;
    const auto lock = solve_batch(a, b, x_lock, settings);
    ASSERT_EQ(lock.log.num_batch(), nbatch);
    for (size_type i = 0; i < nbatch; ++i) {
        SCOPED_TRACE(testing::Message() << "system " << i);
        EXPECT_EQ(scalar.log.converged(i), lock.log.converged(i));
        EXPECT_EQ(scalar.log.iterations(i), lock.log.iterations(i));
        EXPECT_TRUE(same_bits(scalar.log.residual_norm(i),
                              lock.log.residual_norm(i)))
            << scalar.log.residual_norm(i) << " vs "
            << lock.log.residual_norm(i);
        EXPECT_EQ(scalar.log.failure(i), lock.log.failure(i));
        for (index_type k = 0; k < a.rows(); ++k) {
            EXPECT_TRUE(
                same_bits(x_scalar.entry(i)[k], x_lock.entry(i)[k]))
                << "row " << k;
        }
        if (lock.log.converged(i) &&
            settings.stop == StopType::abs_residual) {
            EXPECT_LT(residual_norm(csr, i, x_lock.entry(i), b.entry(i)),
                      10 * settings.tolerance);
        }
    }
}

SolverSettings bicgstab_jacobi()
{
    SolverSettings s;
    s.solver = SolverType::bicgstab;
    s.precond = PrecondType::jacobi;
    s.tolerance = 1e-10;
    return s;
}

class LockstepWidth : public ::testing::TestWithParam<int> {};

TEST_P(LockstepWidth, CsrMatchesScalar)
{
    auto p = Problem::make(13);
    expect_lockstep_matches_scalar(p.a, p.a, p.b, bicgstab_jacobi(),
                                   GetParam());
}

TEST_P(LockstepWidth, EllMatchesScalar)
{
    auto p = Problem::make(13);
    const auto ell = to_ell(p.a);
    expect_lockstep_matches_scalar(p.a, ell, p.b, bicgstab_jacobi(),
                                   GetParam());
}

TEST_P(LockstepWidth, SellpMatchesScalar)
{
    auto p = Problem::make(13);
    const auto sellp = to_sellp(p.a, 16);
    expect_lockstep_matches_scalar(p.a, sellp, p.b, bicgstab_jacobi(),
                                   GetParam());
}

TEST_P(LockstepWidth, IdentityPrecondMatchesScalar)
{
    auto p = Problem::make(9);
    auto s = bicgstab_jacobi();
    s.precond = PrecondType::identity;
    s.max_iterations = 2000;
    expect_lockstep_matches_scalar(p.a, p.a, p.b, s, GetParam());
}

TEST_P(LockstepWidth, CgOnSpdBatchMatchesScalar)
{
    auto p = Problem::make(11, 8, 7, /*spd=*/true);
    auto s = bicgstab_jacobi();
    s.solver = SolverType::cg;
    expect_lockstep_matches_scalar(p.a, p.a, p.b, s, GetParam());
}

TEST_P(LockstepWidth, HistoryMatchesScalar)
{
    // Both paths record into ConvergenceHistory along one rule: the
    // residual at the top of every iteration, then the final state. A
    // capacity of 4 makes long trajectories decimate; NaN and zero
    // right-hand sides retire at iteration 0 beside iterating lane-mates.
    int max_stride = 1;
    for (const bool cg : {false, true}) {
        auto p = Problem::make(13, 8, 7, /*spd=*/cg);
        for (index_type k = 0; k < p.a.rows(); ++k) {
            p.b.entry(2)[k] = std::nan("");
            p.b.entry(5)[k] = 0.0;
        }
        for (const auto precond :
             {PrecondType::identity, PrecondType::jacobi}) {
            for (const bool pipelined : {false, true}) {
                auto s = bicgstab_jacobi();
                s.solver = cg ? SolverType::cg : SolverType::bicgstab;
                s.precond = precond;
                s.pipelined = pipelined;
                s.max_iterations = 300;
                s.record_convergence = true;
                s.convergence_capacity = 4;
                BatchVector<real_type> x_scalar(13, p.a.rows());
                BatchVector<real_type> x_lock(13, p.a.rows());
                const auto scalar = solve_batch(p.a, p.b, x_scalar, s);
                s.lockstep_width = GetParam();
                const auto lock = solve_batch(p.a, p.b, x_lock, s);
                for (size_type i = 0; i < 13; ++i) {
                    SCOPED_TRACE(testing::Message()
                                 << solver_name(s.solver) << " "
                                 << precond_name(precond)
                                 << (pipelined ? " pipelined" : " classic")
                                 << " system " << i);
                    const auto& hs = scalar.history;
                    const auto& hl = lock.history;
                    ASSERT_EQ(hs.points(i).size(), hl.points(i).size());
                    for (std::size_t k = 0; k < hs.points(i).size(); ++k) {
                        EXPECT_EQ(hs.points(i)[k].iteration,
                                  hl.points(i)[k].iteration);
                        EXPECT_TRUE(same_bits(hs.points(i)[k].residual,
                                              hl.points(i)[k].residual));
                    }
                    EXPECT_EQ(hs.stride(i), hl.stride(i));
                    max_stride = std::max(max_stride, hs.stride(i));
                    EXPECT_EQ(hs.final_point(i).iteration,
                              hl.final_point(i).iteration);
                    EXPECT_TRUE(same_bits(hs.final_point(i).residual,
                                          hl.final_point(i).residual));
                }
            }
        }
    }
    EXPECT_GT(max_stride, 1) << "no trajectory was decimated";
}

INSTANTIATE_TEST_SUITE_P(Widths, LockstepWidth,
                         ::testing::Values(2, 4, 8, 16));

TEST(Lockstep, BatchSmallerThanWidth)
{
    // 3 systems through width-8 groups: most lanes never get work.
    auto p = Problem::make(3);
    expect_lockstep_matches_scalar(p.a, p.a, p.b, bicgstab_jacobi(), 8);
}

TEST(Lockstep, RaggedTail)
{
    // 10 % 4 != 0: the last refill round fills only part of a group.
    auto p = Problem::make(10);
    expect_lockstep_matches_scalar(p.a, p.a, p.b, bicgstab_jacobi(), 4);
}

TEST(Lockstep, EmptyBatch)
{
    auto p = Problem::make(1);
    BatchCsr<real_type> empty(0, p.a.rows(), p.a.row_ptrs(),
                              p.a.col_idxs());
    BatchVector<real_type> b(0, p.a.rows());
    BatchVector<real_type> x(0, p.a.rows());
    auto s = bicgstab_jacobi();
    s.lockstep_width = 4;
    const auto result = solve_batch(empty, b, x, s);
    EXPECT_EQ(result.log.num_batch(), 0);
}

TEST(Lockstep, ZeroRhsLanesConvergeInstantlyBesideIteratingLaneMates)
{
    // Zero right-hand sides converge at iteration 0 with a zero solution
    // while their lane-mates keep iterating; the lanes must be refilled
    // and the neighbours' results unaffected.
    auto p = Problem::make(12);
    for (size_type i : {size_type{0}, size_type{3}, size_type{7}}) {
        auto bv = p.b.entry(i);
        for (index_type k = 0; k < bv.len; ++k) {
            bv[k] = 0.0;
        }
    }
    auto s = bicgstab_jacobi();
    s.lockstep_width = 4;
    BatchVector<real_type> x(12, p.a.rows());
    const auto result = solve_batch(p.a, p.b, x, s);
    EXPECT_TRUE(result.log.all_converged());
    for (size_type i : {size_type{0}, size_type{3}, size_type{7}}) {
        EXPECT_EQ(result.log.iterations(i), 0);
        EXPECT_EQ(result.log.residual_norm(i), 0.0);
        for (index_type k = 0; k < p.a.rows(); ++k) {
            EXPECT_EQ(x.entry(i)[k], 0.0);
        }
    }
    for (size_type i : {size_type{1}, size_type{2}, size_type{4}}) {
        EXPECT_GT(result.log.iterations(i), 0);
        EXPECT_LT(residual_norm(p.a, i, x.entry(i), p.b.entry(i)), 1e-9);
    }
    // The whole batch must also match the scalar path.
    expect_lockstep_matches_scalar(p.a, p.a, p.b, bicgstab_jacobi(), 4);
}

TEST(Lockstep, WarmStartMatchesScalar)
{
    // Both paths start from the same nonzero guess.
    auto p = Problem::make(7);
    BatchVector<real_type> guess(7, p.a.rows());
    Rng rng(99);
    for (size_type i = 0; i < 7; ++i) {
        for (index_type k = 0; k < p.a.rows(); ++k) {
            guess.entry(i)[k] = rng.uniform(-0.1, 0.1);
        }
    }
    // The warm-started solve converges every system to a truly small
    // residual; the lockstep solution has the same bits (checked below).
    auto s = bicgstab_jacobi();
    s.use_initial_guess = true;
    BatchVector<real_type> x = guess;
    EXPECT_TRUE(solve_batch(p.a, p.b, x, s).log.all_converged());
    for (size_type i = 0; i < 7; ++i) {
        EXPECT_LT(residual_norm(p.a, i, x.entry(i), p.b.entry(i)), 1e-9)
            << "system " << i;
    }
    expect_lockstep_matches_scalar(p.a, p.a, p.b, bicgstab_jacobi(), 4,
                                   &guess);
}

TEST(Lockstep, RelativeResidualStopMatchesScalar)
{
    auto p = Problem::make(9);
    auto s = bicgstab_jacobi();
    s.stop = StopType::rel_residual;
    s.tolerance = 1e-8;
    expect_lockstep_matches_scalar(p.a, p.a, p.b, s, 4);
}

TEST(Lockstep, OddWidthRoundsDownToSupported)
{
    auto p = Problem::make(6);
    // Width 3 rounds down to 2; width 100 rounds down to 16. Both must
    // still match the scalar path, and the work profile must report the
    // effective lane count.
    for (int requested : {3, 100}) {
        auto s = bicgstab_jacobi();
        s.lockstep_width = requested;
        BatchVector<real_type> x(6, p.a.rows());
        const auto result = solve_batch(p.a, p.b, x, s);
        EXPECT_TRUE(result.log.all_converged());
        EXPECT_EQ(result.work.simd_lanes, requested == 3 ? 2 : 16);
    }
    expect_lockstep_matches_scalar(p.a, p.a, p.b, bicgstab_jacobi(), 3);
}

TEST(Lockstep, RepeatedDiagonalEntryMatchesScalar)
{
    // io::from_coo stores a diagonal triplet given twice as two pattern
    // slots: the value in the first, 0 in the second. SpMV applies their
    // sum, so both Jacobi paths must invert that same sum.
    const index_type n = 4;
    const size_type nbatch = 6;
    std::vector<io::Coo> entries;
    for (size_type e = 0; e < nbatch; ++e) {
        io::Coo coo;
        coo.rows = n;
        coo.cols = n;
        for (index_type r = 0; r < n; ++r) {
            for (index_type c = std::max(r - 1, index_type{0});
                 c <= std::min(r + 1, n - 1); ++c) {
                coo.row_idxs.push_back(r);
                coo.col_idxs.push_back(c);
                coo.values.push_back(r == c ? 3.0 + e : -1.0);
            }
        }
        coo.row_idxs.push_back(1);
        coo.col_idxs.push_back(1);
        coo.values.push_back(4.0 + e);
        entries.push_back(coo);
    }
    const auto a = io::from_coo(entries);
    BatchVector<real_type> b(nbatch, n);
    Rng rng(3);
    for (size_type i = 0; i < nbatch; ++i) {
        for (index_type k = 0; k < n; ++k) {
            b.entry(i)[k] = rng.uniform(-1.0, 1.0);
        }
    }
    BatchVector<real_type> x_scalar(nbatch, n);
    EXPECT_TRUE(solve_batch(a, b, x_scalar, bicgstab_jacobi())
                    .log.all_converged());
    for (const int width : {2, 8}) {
        SCOPED_TRACE(testing::Message() << "width " << width);
        expect_lockstep_matches_scalar(a, a, b, bicgstab_jacobi(), width);
    }
}

TEST(Lockstep, UnsupportedCompositionsFallBackToScalarPath)
{
    auto p = Problem::make(5);
    BatchVector<real_type> x(5, p.a.rows());

    // Block-Jacobi preconditioning has no lockstep kernel.
    auto s = bicgstab_jacobi();
    s.precond = PrecondType::block_jacobi;
    s.lockstep_width = 8;
    auto result = solve_batch(p.a, p.b, x, s);
    EXPECT_TRUE(result.log.all_converged());
    EXPECT_EQ(result.work.simd_lanes, 1);

    // Unfused kernels keep the scalar reference composition.
    s = bicgstab_jacobi();
    s.fused_kernels = false;
    s.lockstep_width = 8;
    result = solve_batch(p.a, p.b, x, s);
    EXPECT_TRUE(result.log.all_converged());
    EXPECT_EQ(result.work.simd_lanes, 1);

    // Solvers without a lockstep kernel fall back too.
    s = bicgstab_jacobi();
    s.solver = SolverType::gmres;
    s.lockstep_width = 8;
    result = solve_batch(p.a, p.b, x, s);
    EXPECT_TRUE(result.log.all_converged());
    EXPECT_EQ(result.work.simd_lanes, 1);

    // Width below 2 selects the scalar path.
    s = bicgstab_jacobi();
    s.lockstep_width = 1;
    result = solve_batch(p.a, p.b, x, s);
    EXPECT_TRUE(result.log.all_converged());
    EXPECT_EQ(result.work.simd_lanes, 1);

    // BatchDense has no shared sparse pattern to ELL-ize.
    const auto dense = to_dense(p.a);
    s = bicgstab_jacobi();
    s.lockstep_width = 8;
    result = solve_batch(dense, p.b, x, s);
    EXPECT_TRUE(result.log.all_converged());
    EXPECT_EQ(result.work.simd_lanes, 1);
}

TEST(Lockstep, WorkProfileReportsLanes)
{
    auto p = Problem::make(4);
    BatchVector<real_type> x(4, p.a.rows());
    auto s = bicgstab_jacobi();
    s.lockstep_width = 8;
    const auto result = solve_batch(p.a, p.b, x, s);
    EXPECT_EQ(result.work.simd_lanes, 8);
}

TEST(Lockstep, SolveBatchSellpEndToEnd)
{
    // The SELL-P instantiation of solve_batch (scalar and lockstep paths).
    auto p = Problem::make(6);
    const auto sellp = to_sellp(p.a, 32);
    BatchVector<real_type> x(6, p.a.rows());
    auto s = bicgstab_jacobi();
    auto result = solve_batch(sellp, p.b, x, s);
    EXPECT_TRUE(result.log.all_converged());
    for (size_type i = 0; i < 6; ++i) {
        EXPECT_LT(residual_norm(p.a, i, x.entry(i), p.b.entry(i)), 1e-9);
    }
    s.lockstep_width = 8;
    result = solve_batch(sellp, p.b, x, s);
    EXPECT_TRUE(result.log.all_converged());
    EXPECT_EQ(result.work.simd_lanes, 8);
}

/// One copy of the lane drivers' outcome on a batch.
struct CopyOutcome {
    BatchLog log;
    BatchVector<real_type> x;
    obs::ConvergenceHistory history;
};

template <bool Wide, typename BatchMatrix, typename Stop>
CopyOutcome run_copy(const BatchMatrix& a, const BatchVector<real_type>& b,
                     const SolverSettings& s, int width, const Stop& stop)
{
    CopyOutcome out{BatchLog(a.num_batch()),
                    BatchVector<real_type>(a.num_batch(), a.rows()),
                    {}};
    out.history.reset(a.num_batch(), 4);
    WorkspacePool pool;
    obs::PhaseTally phases;
    if constexpr (Wide) {
#ifdef BSIS_WIDE_LANES
        isa_v4::run_lockstep(a, b, out.x, s, width, stop, pool, out.log,
                             &out.history, phases);
#endif
    } else {
        isa_base::run_lockstep(a, b, out.x, s, width, stop, pool, out.log,
                               &out.history, phases);
    }
    return out;
}

/// Runs both copies on the same batch and checks every outcome bit.
template <typename BatchMatrix, typename Stop>
void expect_copies_match(const BatchMatrix& a, const BatchVector<real_type>& b,
                         const SolverSettings& s, int width, const Stop& stop)
{
    const auto base = run_copy<false>(a, b, s, width, stop);
    const auto wide = run_copy<true>(a, b, s, width, stop);
    for (size_type i = 0; i < a.num_batch(); ++i) {
        SCOPED_TRACE(testing::Message() << "system " << i);
        EXPECT_EQ(base.log.converged(i), wide.log.converged(i));
        EXPECT_EQ(base.log.iterations(i), wide.log.iterations(i));
        EXPECT_TRUE(same_bits(base.log.residual_norm(i),
                              wide.log.residual_norm(i)));
        EXPECT_EQ(base.log.failure(i), wide.log.failure(i));
        for (index_type k = 0; k < a.rows(); ++k) {
            EXPECT_TRUE(same_bits(base.x.entry(i)[k], wide.x.entry(i)[k]))
                << "row " << k;
        }
        const auto& hb = base.history.points(i);
        const auto& hw = wide.history.points(i);
        ASSERT_EQ(hb.size(), hw.size());
        for (std::size_t k = 0; k < hb.size(); ++k) {
            EXPECT_EQ(hb[k].iteration, hw[k].iteration);
            EXPECT_TRUE(same_bits(hb[k].residual, hw[k].residual));
        }
        EXPECT_EQ(base.history.final_point(i).iteration,
                  wide.history.final_point(i).iteration);
        EXPECT_TRUE(same_bits(base.history.final_point(i).residual,
                              wide.history.final_point(i).residual));
    }
}

TEST(LockstepIsa, WideCopyMatchesBaselineBitForBit)
{
#ifndef BSIS_WIDE_LANES
    GTEST_SKIP() << "the x86-64-v4 copy of the lane drivers is not built";
#endif
    if (lockstep_isa() != IsaLevel::x86_64_v4) {
        GTEST_SKIP() << "this CPU does not support x86-64-v4";
    }
    for (const bool cg : {false, true}) {
        // A NaN right-hand side retires at iteration 0 as non-finite, a
        // zero one as converged, both beside iterating lane-mates.
        auto p = Problem::make(13, 8, 7, /*spd=*/cg);
        for (index_type k = 0; k < p.a.rows(); ++k) {
            p.b.entry(2)[k] = std::nan("");
            p.b.entry(5)[k] = 0.0;
        }
        const auto ell = to_ell(p.a);
        const auto sellp = to_sellp(p.a, 16);
        for (const bool jacobi : {false, true}) {
            for (const bool pipelined : {false, true}) {
                for (const int width : {2, 4, 8, 16}) {
                    SolverSettings s;
                    s.solver = cg ? SolverType::cg : SolverType::bicgstab;
                    s.precond = jacobi ? PrecondType::jacobi
                                       : PrecondType::identity;
                    s.pipelined = pipelined;
                    s.max_iterations = 300;
                    SCOPED_TRACE(testing::Message()
                                 << (cg ? "cg" : "bicgstab")
                                 << (jacobi ? " jacobi" : " identity")
                                 << (pipelined ? " pipelined" : " classic")
                                 << " width " << width);
                    for (const bool rel : {false, true}) {
                        SCOPED_TRACE(rel ? "rel stop" : "abs stop");
                        const auto check = [&](const auto& a) {
                            if (rel) {
                                expect_copies_match(a, p.b, s, width,
                                                    RelResidualStop{1e-8});
                            } else {
                                expect_copies_match(a, p.b, s, width,
                                                    AbsResidualStop{1e-10});
                            }
                        };
                        check(p.a);
                        check(ell);
                        check(sellp);
                    }
                }
            }
        }
    }
}

}  // namespace
}  // namespace bsis
