// Pipelined tier (`pipelined` ctest label): the pipelined BiCGStab / CG
// kernels that collapse the per-iteration reductions into one or two
// multi-output sweeps (SolverSettings::pipelined).
//
// Contract under test: against the classic fused kernels the pipelined
// variants converge with identical verdicts, iteration counts within one,
// and residual norms to rounding at equal counts -- across solvers,
// preconditioners, sparse formats, and the scalar / lockstep paths; the
// recurrence-maintained residual norm may not drift from the true residual
// at exit; failure classification on a seeded breakdown/NaN batch is
// identical to the classic kernels; and the convergence-history recorder
// sees the same span of iterations.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/forensics.hpp"
#include "core/solver.hpp"
#include "exec/executor.hpp"
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

/// Solves the same batch with the classic and the pipelined fused kernels
/// (same path, same width) and checks the per-entry results agree:
/// identical verdicts, iteration counts within one, residual norms to
/// rounding at equal counts, and a truly small residual of the pipelined
/// solution for converged entries.
template <typename BatchMatrix>
void expect_pipelined_matches_classic(const BatchCsr<real_type>& csr,
                                      const BatchMatrix& a,
                                      const BatchVector<real_type>& b,
                                      SolverSettings settings, int width)
{
    const size_type nbatch = a.num_batch();
    settings.fused_kernels = true;
    settings.lockstep_width = width;
    BatchVector<real_type> x_classic(nbatch, a.rows());
    BatchVector<real_type> x_pipe(nbatch, a.rows());
    settings.pipelined = false;
    const auto classic = solve_batch(a, b, x_classic, settings);
    settings.pipelined = true;
    const auto pipe = solve_batch(a, b, x_pipe, settings);
    ASSERT_EQ(pipe.log.num_batch(), nbatch);
    for (size_type i = 0; i < nbatch; ++i) {
        EXPECT_EQ(classic.log.converged(i), pipe.log.converged(i))
            << "system " << i << " width " << width;
        EXPECT_NEAR(classic.log.iterations(i), pipe.log.iterations(i), 1)
            << "system " << i << " width " << width;
        if (classic.log.iterations(i) == pipe.log.iterations(i)) {
            const real_type rc = classic.log.residual_norm(i);
            const real_type rp = pipe.log.residual_norm(i);
            EXPECT_NEAR(rc, rp,
                        1e-6 * std::max({std::abs(rc), std::abs(rp),
                                         real_type{1e-30}}))
                << "system " << i << " width " << width;
        }
        if (pipe.log.converged(i) &&
            settings.stop == StopType::abs_residual) {
            EXPECT_LT(residual_norm(csr, i, x_pipe.entry(i), b.entry(i)),
                      10 * settings.tolerance)
                << "system " << i << " width " << width;
        }
    }
}

SolverSettings base_settings(SolverType solver, PrecondType precond)
{
    SolverSettings s;
    s.solver = solver;
    s.precond = precond;
    s.tolerance = 1e-10;
    s.max_iterations = 2000;
    return s;
}

/// Width 0 (scalar path) and every instantiated lockstep width.
class PipelinedWidth : public ::testing::TestWithParam<int> {};

TEST_P(PipelinedWidth, BicgstabMatchesClassicAcrossFormatsAndPreconds)
{
    auto p = Problem::make(13);
    const auto ell = to_ell(p.a);
    const auto sellp = to_sellp(p.a, 16);
    for (const auto precond :
         {PrecondType::jacobi, PrecondType::identity}) {
        const auto s = base_settings(SolverType::bicgstab, precond);
        expect_pipelined_matches_classic(p.a, p.a, p.b, s, GetParam());
        expect_pipelined_matches_classic(p.a, ell, p.b, s, GetParam());
        expect_pipelined_matches_classic(p.a, sellp, p.b, s, GetParam());
    }
}

TEST_P(PipelinedWidth, CgMatchesClassicAcrossFormatsAndPreconds)
{
    auto p = Problem::make(11, 8, 7, /*spd=*/true);
    const auto ell = to_ell(p.a);
    const auto sellp = to_sellp(p.a, 16);
    for (const auto precond :
         {PrecondType::jacobi, PrecondType::identity}) {
        const auto s = base_settings(SolverType::cg, precond);
        expect_pipelined_matches_classic(p.a, p.a, p.b, s, GetParam());
        expect_pipelined_matches_classic(p.a, ell, p.b, s, GetParam());
        expect_pipelined_matches_classic(p.a, sellp, p.b, s, GetParam());
    }
}

TEST_P(PipelinedWidth, RelativeStopMatchesClassic)
{
    auto p = Problem::make(9);
    auto s = base_settings(SolverType::bicgstab, PrecondType::jacobi);
    s.stop = StopType::rel_residual;
    s.tolerance = 1e-8;
    expect_pipelined_matches_classic(p.a, p.a, p.b, s, GetParam());
}

/// The recurrence-maintained residual norm must agree with the true
/// residual ||b - A x|| at exit -- the single-iteration recurrences are
/// re-anchored to measured quantities every iteration, so drift cannot
/// compound.
TEST_P(PipelinedWidth, RecurrenceNormDoesNotDriftFromTrueResidual)
{
    for (const auto solver : {SolverType::bicgstab, SolverType::cg}) {
        auto p = Problem::make(10, 8, 7, solver == SolverType::cg);
        auto s = base_settings(solver, PrecondType::jacobi);
        s.pipelined = true;
        s.lockstep_width = GetParam();
        BatchVector<real_type> x(10, p.a.rows());
        const auto result = solve_batch(p.a, p.b, x, s);
        for (size_type i = 0; i < 10; ++i) {
            ASSERT_TRUE(result.log.converged(i)) << "system " << i;
            const real_type reported = result.log.residual_norm(i);
            const real_type true_norm =
                residual_norm(p.a, i, x.entry(i), p.b.entry(i));
            EXPECT_NEAR(reported, true_norm, 10 * s.tolerance)
                << solver_name(solver) << " system " << i;
        }
    }
}

/// Convergence-history span parity: the pipelined kernels feed the
/// recorder the same iteration span as the classic kernels (point at
/// iteration 0, finalized at the exit iteration).
TEST_P(PipelinedWidth, ConvergenceHistoryCoversTheSameSpan)
{
    auto p = Problem::make(6);
    auto s = base_settings(SolverType::bicgstab, PrecondType::jacobi);
    s.record_convergence = true;
    s.lockstep_width = GetParam();
    BatchVector<real_type> x_classic(6, p.a.rows());
    BatchVector<real_type> x_pipe(6, p.a.rows());
    const auto classic = solve_batch(p.a, p.b, x_classic, s);
    s.pipelined = true;
    const auto pipe = solve_batch(p.a, p.b, x_pipe, s);
    ASSERT_TRUE(pipe.history.active());
    ASSERT_EQ(pipe.history.num_batch(), 6);
    for (size_type i = 0; i < 6; ++i) {
        ASSERT_TRUE(pipe.history.finalized(i)) << "system " << i;
        EXPECT_EQ(pipe.history.converged(i), pipe.log.converged(i));
        EXPECT_EQ(pipe.history.final_point(i).iteration,
                  pipe.log.iterations(i));
        const auto& cpts = classic.history.points(i);
        const auto& ppts = pipe.history.points(i);
        ASSERT_FALSE(ppts.empty()) << "system " << i;
        EXPECT_EQ(ppts.front().iteration, 0) << "system " << i;
        // Same initial residual (measured identically by both kernels).
        EXPECT_DOUBLE_EQ(ppts.front().residual, cpts.front().residual)
            << "system " << i;
        // Same span up to the one-iteration stopping slack.
        EXPECT_NEAR(ppts.back().iteration, cpts.back().iteration,
                    1 + classic.history.stride(i))
            << "system " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Paths, PipelinedWidth,
                         ::testing::Values(0, 2, 4, 8, 16));

// ---------------------------------------------------------------------
// Failure-classification parity on a seeded breakdown/NaN batch
// ---------------------------------------------------------------------

/// Tridiagonal Coo as in test_forensics: with `laplacian` the diagonal is
/// the negated off-diagonal row sum (a singular Neumann Laplacian).
io::Coo tridiag(index_type n, real_type diag, real_type off,
                bool laplacian = false)
{
    io::Coo coo;
    coo.rows = n;
    coo.cols = n;
    for (index_type r = 0; r < n; ++r) {
        for (index_type c = std::max(r - 1, index_type{0});
             c <= std::min(r + 1, n - 1); ++c) {
            real_type v = r == c ? diag : off;
            if (laplacian && r == c) {
                v = (r == 0 || r == n - 1) ? -off : -2 * off;
            }
            coo.row_idxs.push_back(r);
            coo.col_idxs.push_back(c);
            coo.values.push_back(v);
        }
    }
    return coo;
}

/// sys 0: singular Laplacian with inconsistent rhs; sys 1: NaN-poisoned
/// rhs; sys 2: hard system under a tight iteration cap; sys 3: identity
/// system, converges immediately. The pipelined kernels must classify
/// every seeded mode exactly as the classic kernels do, on the scalar and
/// the lockstep path alike.
TEST(PipelinedForensics, SeededBatchClassifiesIdenticallyToClassic)
{
    const index_type n = 16;
    const auto a =
        io::from_coo({tridiag(n, 2, -1, true), tridiag(n, 2, -1),
                      tridiag(n, 2.0, -1.01), tridiag(n, 1, 0)});
    BatchVector<real_type> b(4, n, real_type{1});
    b.entry(0)[0] = 2;  // sum(b) != 0: outside the Laplacian's range
    b.entry(1)[n / 2] = std::nan("");

    for (const auto solver : {SolverType::bicgstab, SolverType::cg}) {
        SolverSettings s;
        s.solver = solver;
        s.precond = PrecondType::jacobi;
        s.tolerance = 1e-10;
        s.max_iterations = 2;  // caps the hard system
        for (const int width : {0, 4}) {
            s.lockstep_width = width;
            BatchVector<real_type> x_classic(4, n);
            BatchVector<real_type> x_pipe(4, n);
            s.pipelined = false;
            const auto classic = solve_batch(a, b, x_classic, s);
            s.pipelined = true;
            const auto pipe = solve_batch(a, b, x_pipe, s);
            for (size_type sys = 0; sys < 4; ++sys) {
                EXPECT_EQ(classic.log.failure(sys), pipe.log.failure(sys))
                    << solver_name(solver) << " width " << width
                    << " system " << sys;
            }
            // The seeded modes come out as designed.
            EXPECT_EQ(pipe.log.failure(1), FailureClass::non_finite);
            EXPECT_EQ(pipe.log.failure(3), FailureClass::converged);
            EXPECT_NE(pipe.log.failure(0), FailureClass::converged);
            EXPECT_NE(pipe.log.failure(2), FailureClass::converged);
        }

        // The simulated-GPU executor path reaches the same verdicts.
        s.lockstep_width = 0;
        SimGpuExecutor exec(gpusim::v100());
        BatchVector<real_type> x_classic(4, n);
        BatchVector<real_type> x_pipe(4, n);
        s.pipelined = false;
        const auto classic = exec.solve(a, b, x_classic, s);
        s.pipelined = true;
        const auto pipe = exec.solve(a, b, x_pipe, s);
        for (size_type sys = 0; sys < 4; ++sys) {
            EXPECT_EQ(classic.log.failure(sys), pipe.log.failure(sys))
                << solver_name(solver) << " simgpu system " << sys;
        }
    }
}

// ---------------------------------------------------------------------
// The traced twin on the simulated GPU
// ---------------------------------------------------------------------

/// The pipelined traced kernel must be sanitizer-clean (no races, no
/// barrier divergence, no out-of-bounds scratch publishes) at both warp
/// widths the paper's devices use: 32 (V100) and 64 (MI100).
TEST(PipelinedGpusim, SanitizerCleanAtWarp32And64)
{
    auto p = Problem::make(4);
    for (const auto* device : {&gpusim::v100(), &gpusim::mi100()}) {
        SimGpuExecutor exec(*device);
        exec.set_sanitize(true);
        auto s = base_settings(SolverType::bicgstab, PrecondType::jacobi);
        s.pipelined = true;
        BatchVector<real_type> x(4, p.a.rows());
        const auto report = exec.solve(p.a, p.b, x, s);
        ASSERT_TRUE(report.sanitized) << device->name;
        EXPECT_TRUE(report.sanitizer.clean())
            << device->name << ": " << report.sanitizer.summary();
        EXPECT_TRUE(report.log.all_converged()) << device->name;
    }
}

/// Pipelining must pay off in the model on both devices: fewer block-wide
/// barriers per traced iteration (the profiled counters), a lower modeled
/// per-iteration cost (the priced sweep structure), and -- on the
/// thread-per-row ELL kernel, the Table II workhorse -- improved warp
/// utilization (the removed reduction rounds were the near-empty
/// instructions). The warp-per-row CSR kernel keeps its utilization
/// roughly flat: its short rows bound the lane activity either way.
TEST(PipelinedGpusim, FewerBarriersAndLowerModeledIterationCost)
{
    auto p = Problem::make(4);
    const auto ell = to_ell(p.a);
    for (const auto* device : {&gpusim::v100(), &gpusim::mi100()}) {
        SimGpuExecutor exec(*device);
        exec.set_profile(true);
        auto s = base_settings(SolverType::bicgstab, PrecondType::jacobi);
        const auto run = [&](const auto& a, bool pipelined) {
            s.pipelined = pipelined;
            BatchVector<real_type> x(4, p.a.rows());
            return exec.solve(a, p.b, x, s);
        };
        for (const auto format : {BatchFormat::csr, BatchFormat::ell}) {
            const bool is_ell = format == BatchFormat::ell;
            const auto classic =
                is_ell ? run(ell, false) : run(p.a, false);
            const auto pipe = is_ell ? run(ell, true) : run(p.a, true);
            ASSERT_TRUE(classic.profiled && pipe.profiled)
                << device->name;
            // Same iterations give a fair comparison; the pipelined trace
            // removes 7 of the classic 21 barriers per iteration.
            EXPECT_NEAR(classic.log.iterations(0), pipe.log.iterations(0),
                        1)
                << device->name;
            EXPECT_LT(pipe.profile.counters.barriers,
                      classic.profile.counters.barriers)
                << device->name;
            EXPECT_LT(pipe.block_cost.per_iteration_us,
                      classic.block_cost.per_iteration_us)
                << device->name;
            if (is_ell) {
                EXPECT_GT(pipe.profile.warp_utilization(),
                          classic.profile.warp_utilization())
                    << device->name;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Flag semantics
// ---------------------------------------------------------------------

TEST(PipelinedFlag, RequiresFusedKernels)
{
    // With fused_kernels == false the pipelined flag is ignored: the
    // reference composition runs and converges as usual.
    auto p = Problem::make(5);
    auto s = base_settings(SolverType::bicgstab, PrecondType::jacobi);
    s.fused_kernels = false;
    s.pipelined = true;
    BatchVector<real_type> x(5, p.a.rows());
    const auto result = solve_batch(p.a, p.b, x, s);
    EXPECT_TRUE(result.log.all_converged());
    // The unfused reference profile carries no fused sweep shape.
    EXPECT_FALSE(result.work.has_fused_shape());
}

TEST(PipelinedFlag, OtherSolversIgnoreTheFlag)
{
    auto p = Problem::make(4);
    auto s = base_settings(SolverType::gmres, PrecondType::jacobi);
    s.pipelined = true;
    BatchVector<real_type> x(4, p.a.rows());
    const auto result = solve_batch(p.a, p.b, x, s);
    EXPECT_TRUE(result.log.all_converged());
    for (size_type i = 0; i < 4; ++i) {
        EXPECT_LT(residual_norm(p.a, i, x.entry(i), p.b.entry(i)), 1e-9);
    }
}

TEST(PipelinedWorkProfile, PipelinedShapeShrinksStandaloneReductions)
{
    // The profile the solve reports must price the pipelined sweep
    // structure: fewer standalone reduction sweeps than classic fused,
    // paid with wider reduction reads (extra operand vectors).
    const auto classic = work_profile(SolverType::bicgstab, 30, true);
    const auto pipe = work_profile(SolverType::bicgstab, 30, true, true);
    EXPECT_LT(pipe.fused_dot_sweeps, classic.fused_dot_sweeps);
    EXPECT_GT(pipe.fused_extra_dot_vectors, 0);
    // Operation counts (flop totals) are untouched by pipelining.
    EXPECT_EQ(pipe.dots_per_iter, classic.dots_per_iter);
    EXPECT_EQ(pipe.spmv_per_iter, classic.spmv_per_iter);

    const auto cg_classic =
        work_profile(SolverType::cg, 30, true);
    const auto cg_pipe =
        work_profile(SolverType::cg, 30, true, true);
    EXPECT_LT(cg_pipe.fused_dot_sweeps + cg_pipe.fused_norm_update_sweeps,
              cg_classic.fused_dot_sweeps +
                  cg_classic.fused_norm_update_sweeps);
    EXPECT_GT(cg_pipe.fused_extra_combines, 0);

    auto p = Problem::make(3);
    auto s = base_settings(SolverType::bicgstab, PrecondType::jacobi);
    s.pipelined = true;
    BatchVector<real_type> x(3, p.a.rows());
    const auto result = solve_batch(p.a, p.b, x, s);
    EXPECT_EQ(result.work.fused_dot_sweeps, pipe.fused_dot_sweeps);
    EXPECT_EQ(result.work.fused_extra_dot_vectors,
              pipe.fused_extra_dot_vectors);
}

}  // namespace
}  // namespace bsis
