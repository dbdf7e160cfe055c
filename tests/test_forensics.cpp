// Forensics tier (`forensics` ctest label): the failure taxonomy, the
// flight recorder, and cross-path replay.
//
// The centerpiece mirrors the acceptance scenario of the forensics design:
// a seeded batch -- one singular system, one NaN-poisoned system, one hard
// system under a tight iteration cap, one trivially-converging system --
// must classify identically across the scalar OpenMP path, the SIMD
// batch-lockstep path, and the simulated-GPU executor; the flight recorder
// must write exactly the non-converged systems as bundles; and an
// in-process replay of each bundle must reproduce its recorded
// classification from the bundle alone.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/forensics.hpp"
#include "core/solver.hpp"
#include "exec/executor.hpp"
#include "io/matrix_market.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"

namespace bsis {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory under the test temp root.
std::string scratch_dir(const std::string& name)
{
    const fs::path dir = fs::path(testing::TempDir()) / name;
    fs::remove_all(dir);
    return dir.string();
}

/// Tridiagonal Coo with the given diagonal/off-diagonal values. With
/// `laplacian` the diagonal is overridden to the (negated) row sum of the
/// off-diagonals: a singular Neumann Laplacian with a nonzero diagonal
/// (scalar Jacobi stays well defined).
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

// ---------------------------------------------------------------------
// Taxonomy basics
// ---------------------------------------------------------------------

TEST(FailureClassTest, ClassifyExhausted)
{
    EXPECT_EQ(classify_exhausted(1.0, 10.0, true), FailureClass::converged);
    EXPECT_EQ(classify_exhausted(1.0, 10.0, false),
              FailureClass::max_iters);
    EXPECT_EQ(classify_exhausted(std::nan(""), 10.0, false),
              FailureClass::non_finite);
    EXPECT_EQ(classify_exhausted(std::numeric_limits<real_type>::infinity(),
                                 10.0, false),
              FailureClass::non_finite);
    // No meaningful reduction from the initial residual: stagnated.
    EXPECT_EQ(classify_exhausted(9.95, 10.0, false),
              FailureClass::stagnated);
    EXPECT_EQ(classify_exhausted(10.0, 10.0, false),
              FailureClass::stagnated);
    EXPECT_EQ(classify_exhausted(12.0, 10.0, false),
              FailureClass::stagnated);
    EXPECT_EQ(classify_exhausted(9.0, 10.0, false), FailureClass::max_iters);
}

TEST(FailureClassTest, NamesRoundTrip)
{
    for (int c = 0; c < num_failure_classes; ++c) {
        const auto cls = static_cast<FailureClass>(c);
        FailureClass back{};
        ASSERT_TRUE(failure_class_from_name(failure_class_name(cls), back));
        EXPECT_EQ(back, cls);
    }
    FailureClass out{};
    EXPECT_FALSE(failure_class_from_name("no_such_class", out));
}

TEST(ForensicsNamesTest, CompositionNamesRoundTrip)
{
    for (const auto s :
         {SolverType::bicgstab, SolverType::bicg, SolverType::cgs,
          SolverType::cg, SolverType::gmres, SolverType::richardson,
          SolverType::chebyshev}) {
        SolverType back{};
        ASSERT_TRUE(solver_from_name(solver_name(s), back));
        EXPECT_EQ(back, s);
    }
    for (const auto p : {PrecondType::identity, PrecondType::jacobi,
                         PrecondType::block_jacobi}) {
        PrecondType back{};
        ASSERT_TRUE(precond_from_name(precond_name(p), back));
        EXPECT_EQ(back, p);
    }
    for (const auto s : {StopType::abs_residual, StopType::rel_residual}) {
        StopType back{};
        ASSERT_TRUE(stop_from_name(stop_name(s), back));
        EXPECT_EQ(back, s);
    }
}

// ---------------------------------------------------------------------
// The acceptance scenario: seeded failures, three paths, one verdict
// ---------------------------------------------------------------------

struct SeededBatch {
    BatchCsr<real_type> a;
    BatchVector<real_type> b;
    SolverSettings settings;
};

/// sys 0: singular Laplacian with inconsistent rhs; sys 1: NaN-poisoned
/// rhs; sys 2: hard (indefinite-ish) system under the tight cap; sys 3:
/// identity system, converges immediately.
SeededBatch seeded_batch()
{
    const index_type n = 16;
    SeededBatch sb{io::from_coo({tridiag(n, 2, -1, true),
                                 tridiag(n, 2, -1), tridiag(n, 2.0, -1.01),
                                 tridiag(n, 1, 0)}),
                   BatchVector<real_type>(4, n, real_type{1}), {}};
    sb.b.entry(0)[0] = 2;  // sum(b) != 0: outside the Laplacian's range
    sb.b.entry(1)[n / 2] = std::nan("");
    sb.settings.solver = SolverType::bicgstab;
    sb.settings.precond = PrecondType::jacobi;
    sb.settings.tolerance = 1e-10;
    sb.settings.max_iterations = 2;  // caps the hard system
    return sb;
}

TEST(FailureTaxonomyTest, SeededBatchClassifiesIdenticallyAcrossPaths)
{
    auto sb = seeded_batch();

    sb.settings.lockstep_width = 0;
    BatchVector<real_type> x_scalar(4, sb.a.rows());
    const auto scalar = solve_batch(sb.a, sb.b, x_scalar, sb.settings);

    sb.settings.lockstep_width = 4;
    BatchVector<real_type> x_lock(4, sb.a.rows());
    const auto lockstep = solve_batch(sb.a, sb.b, x_lock, sb.settings);

    sb.settings.lockstep_width = 0;
    SimGpuExecutor exec(gpusim::v100());
    BatchVector<real_type> x_gpu(4, sb.a.rows());
    const auto gpu = exec.solve(sb.a, sb.b, x_gpu, sb.settings);

    for (size_type sys = 0; sys < 4; ++sys) {
        EXPECT_EQ(scalar.log.failure(sys), lockstep.log.failure(sys))
            << "scalar vs lockstep at system " << sys;
        EXPECT_EQ(scalar.log.failure(sys), gpu.log.failure(sys))
            << "scalar vs simgpu at system " << sys;
    }
    // The seeded modes come out as designed.
    EXPECT_EQ(scalar.log.failure(1), FailureClass::non_finite);
    EXPECT_EQ(scalar.log.failure(3), FailureClass::converged);
    EXPECT_NE(scalar.log.failure(0), FailureClass::converged);
    EXPECT_NE(scalar.log.failure(2), FailureClass::converged);

    // The executor's per-batch summary tallies the same classes.
    FailureCounts expect{};
    for (size_type sys = 0; sys < 4; ++sys) {
        ++expect[static_cast<int>(gpu.log.failure(sys))];
    }
    EXPECT_EQ(gpu.failures, expect);
}

// ---------------------------------------------------------------------
// NaN / Inf poisoning: prompt termination, no neighbor contamination
// ---------------------------------------------------------------------

class PoisonTest : public ::testing::TestWithParam<real_type> {};

TEST_P(PoisonTest, PoisonTerminatesPromptlyWithoutContaminatingNeighbors)
{
    const index_type n = 24;
    const auto a =
        io::from_coo({tridiag(n, 3, -1), tridiag(n, 3, -1),
                      tridiag(n, 3, -1)});
    BatchVector<real_type> b(3, n, real_type{1});
    b.entry(1)[3] = GetParam();

    SolverSettings settings;
    settings.solver = SolverType::bicgstab;
    settings.precond = PrecondType::jacobi;
    settings.tolerance = 1e-10;
    settings.max_iterations = 300;

    const auto check = [&](const BatchLog& log,
                           const BatchVector<real_type>& x,
                           const std::string& path) {
        EXPECT_EQ(log.failure(1), FailureClass::non_finite) << path;
        // Prompt: the poison is in the initial residual, so the solver
        // must stop immediately instead of spinning to the cap.
        EXPECT_EQ(log.iterations(1), 0) << path;
        for (const size_type sys : {size_type{0}, size_type{2}}) {
            EXPECT_EQ(log.failure(sys), FailureClass::converged) << path;
            for (index_type i = 0; i < n; ++i) {
                EXPECT_TRUE(std::isfinite(x.entry(sys)[i]))
                    << path << " system " << sys << " entry " << i;
            }
        }
    };

    settings.lockstep_width = 0;
    BatchVector<real_type> x_scalar(3, n);
    check(solve_batch(a, b, x_scalar, settings).log, x_scalar, "scalar");

    settings.lockstep_width = 2;
    BatchVector<real_type> x_lock(3, n);
    check(solve_batch(a, b, x_lock, settings).log, x_lock, "lockstep");

    settings.lockstep_width = 0;
    SimGpuExecutor exec(gpusim::v100());
    BatchVector<real_type> x_gpu(3, n);
    check(exec.solve(a, b, x_gpu, settings).log, x_gpu, "simgpu");
}

INSTANTIATE_TEST_SUITE_P(
    NanAndInf, PoisonTest,
    ::testing::Values(std::nan(""),
                      std::numeric_limits<real_type>::infinity(),
                      -std::numeric_limits<real_type>::infinity()));

TEST(LockstepTaxonomyTest, PoisonedLaneIsNotMistakenForMaxIters)
{
    // The regression the taxonomy fixed: a lane retiring with a non-finite
    // residual used to record the same terminal state as a clean
    // out-of-iterations exit.
    const index_type n = 16;
    const auto a = io::from_coo({tridiag(n, 3, -1), tridiag(n, 3, -1)});
    BatchVector<real_type> b(2, n, real_type{1});
    b.entry(0)[0] = std::nan("");

    SolverSettings settings;
    settings.solver = SolverType::cg;
    settings.precond = PrecondType::identity;
    settings.max_iterations = 50;
    settings.lockstep_width = 2;
    BatchVector<real_type> x(2, n);
    const auto result = solve_batch(a, b, x, settings);
    EXPECT_EQ(result.log.failure(0), FailureClass::non_finite);
    EXPECT_FALSE(result.log.converged(0));
    EXPECT_EQ(result.log.failure(1), FailureClass::converged);
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

TEST(FlightRecorderTest, CapturesExactlyTheNonConvergedSystems)
{
    const auto dir = scratch_dir("forensics_capture");
    obs::FlightRecorder recorder(dir);
    auto sb = seeded_batch();
    sb.settings.record_convergence = true;
    sb.settings.flight_recorder = &recorder;
    BatchVector<real_type> x(4, sb.a.rows());
    const auto result = solve_batch(sb.a, sb.b, x, sb.settings);

    std::set<std::int64_t> expected;
    for (size_type sys = 0; sys < 4; ++sys) {
        if (!result.log.converged(sys)) {
            expected.insert(static_cast<std::int64_t>(sys));
        }
    }
    ASSERT_EQ(expected.size(), 3u);  // converged system 3 is excluded

    const auto bundles = obs::list_bundles(dir);
    ASSERT_EQ(bundles.size(), expected.size());
    EXPECT_EQ(recorder.captured(), static_cast<int>(expected.size()));
    EXPECT_EQ(recorder.seen(), static_cast<std::int64_t>(expected.size()));
    std::set<std::int64_t> captured;
    for (const auto& bdir : bundles) {
        const auto bundle = obs::load_bundle(bdir);
        captured.insert(bundle.meta.system_index);
        EXPECT_EQ(bundle.meta.failure,
                  failure_class_name(result.log.failure(
                      static_cast<size_type>(bundle.meta.system_index))));
        // The history rode along (record_convergence was on).
        EXPECT_FALSE(bundle.meta.history_residuals.empty());
        EXPECT_EQ(bundle.meta.history_residuals.size(),
                  bundle.meta.history_iterations.size());
    }
    EXPECT_EQ(captured, expected);
    fs::remove_all(dir);
}

TEST(FlightRecorderTest, BudgetBoundsTheCaptures)
{
    const auto dir = scratch_dir("forensics_budget");
    obs::FlightRecorder recorder(dir, 1);
    auto sb = seeded_batch();
    sb.settings.flight_recorder = &recorder;
    BatchVector<real_type> x(4, sb.a.rows());
    solve_batch(sb.a, sb.b, x, sb.settings);

    EXPECT_EQ(recorder.captured(), 1);
    EXPECT_EQ(recorder.seen(), 3);
    EXPECT_EQ(obs::list_bundles(dir).size(), 1u);
    fs::remove_all(dir);
}

TEST(FlightRecorderTest, BundleRoundTripsNonFiniteValues)
{
    const auto dir = scratch_dir("forensics_roundtrip");
    obs::FlightRecorder recorder(dir);

    const index_type n = 4;
    const auto coo = tridiag(n, 2, -1);
    std::vector<real_type> b{1, std::nan(""),
                             std::numeric_limits<real_type>::infinity(),
                             -std::numeric_limits<real_type>::infinity()};
    std::vector<real_type> x0{0, 0.5, 0, 0};
    obs::FailureBundleMeta meta;
    meta.failure = "non_finite";
    meta.solver = "bicgstab";
    meta.precond = "jacobi";
    meta.stop = "absolute";
    meta.tolerance = 1e-10;
    meta.max_iterations = 77;
    meta.gmres_restart = 30;
    meta.block_jacobi_size = 4;
    meta.richardson_omega = 0.9;
    meta.used_initial_guess = true;
    meta.fused_kernels = true;
    meta.lockstep_width = 8;
    meta.system_index = 5;
    meta.iterations = 3;
    meta.residual_norm = std::nan("");
    meta.history_iterations = {0, 1, 2, 3};
    meta.history_residuals = {1.0, 2.0, std::nan(""), std::nan("")};
    ASSERT_TRUE(recorder.capture(
        coo, ConstVecView<real_type>{b.data(), n},
        ConstVecView<real_type>{x0.data(), n}, meta));

    const auto bundles = obs::list_bundles(dir);
    ASSERT_EQ(bundles.size(), 1u);
    const auto bundle = obs::load_bundle(bundles.front());
    EXPECT_EQ(bundle.a.rows, n);
    EXPECT_EQ(bundle.a.values.size(), coo.values.size());
    ASSERT_EQ(bundle.b.size(), 4u);
    EXPECT_EQ(bundle.b[0], 1.0);
    EXPECT_TRUE(std::isnan(bundle.b[1]));
    EXPECT_EQ(bundle.b[2], std::numeric_limits<real_type>::infinity());
    EXPECT_EQ(bundle.b[3], -std::numeric_limits<real_type>::infinity());
    EXPECT_EQ(bundle.x0[1], 0.5);
    EXPECT_EQ(bundle.meta.failure, "non_finite");
    EXPECT_EQ(bundle.meta.solver, "bicgstab");
    EXPECT_EQ(bundle.meta.max_iterations, 77);
    EXPECT_EQ(bundle.meta.richardson_omega, 0.9);
    EXPECT_TRUE(bundle.meta.used_initial_guess);
    EXPECT_EQ(bundle.meta.lockstep_width, 8);
    EXPECT_EQ(bundle.meta.system_index, 5);
    EXPECT_TRUE(std::isnan(bundle.meta.residual_norm));
    ASSERT_EQ(bundle.meta.history_residuals.size(), 4u);
    EXPECT_TRUE(std::isnan(bundle.meta.history_residuals[2]));
    fs::remove_all(dir);
}

TEST(FlightRecorderTest, MalformedMetaJsonRaisesParseError)
{
    const auto dir = scratch_dir("forensics_bad_meta");
    obs::FlightRecorder recorder(dir);
    const index_type n = 3;
    const auto coo = tridiag(n, 2, -1);
    const std::vector<real_type> b(n, 1.0);
    const std::vector<real_type> x0(n, 0.0);
    ASSERT_TRUE(recorder.capture(coo, ConstVecView<real_type>{b.data(), n},
                                 ConstVecView<real_type>{x0.data(), n},
                                 obs::FailureBundleMeta{}));
    const auto bundles = obs::list_bundles(dir);
    ASSERT_EQ(bundles.size(), 1u);
    EXPECT_NO_THROW(obs::load_bundle(bundles.front()));
    const auto meta_path = fs::path(bundles.front()) / "meta.json";
    // Every escape decodes, a surrogate pair to one UTF-8 character.
    std::ofstream(meta_path) << R"({"failure": "\ud83d\ude00\b\f\r\u0002"})";
    EXPECT_EQ(obs::load_bundle(bundles.front()).meta.failure,
              "\xF0\x9F\x98\x80\b\f\r\x02");

    const char* const malformed[] = {
        R"({"failure": "max_iters", "bogus": 1})",  // unknown key
        R"({"max_iterations": "77"})",      // a string for a number
        R"({"pipelined": 1})",              // a number for a bool
        R"({"history_residuals": [1.0, "x"]})",  // a bad array element
        R"({"failure": "max_iters", "solver": )",  // truncated object
        R"(["failure", "max_iters"])",      // not an object
        R"({"max_iterations": 1e300})",     // outside the int range
        R"({"failure": "a\qb"})",           // an unknown escape
        R"({"failure": "\udc00"})",         // a lone low surrogate
    };
    for (const char* text : malformed) {
        std::ofstream(meta_path) << text;
        EXPECT_THROW(obs::load_bundle(bundles.front()), ParseError) << text;
    }
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Replay: the bundle alone reproduces the classification
// ---------------------------------------------------------------------

TEST(ReplayTest, BundlesReproduceTheirClassificationAcrossPaths)
{
    const auto dir = scratch_dir("forensics_replay");
    obs::FlightRecorder recorder(dir);
    auto sb = seeded_batch();
    sb.settings.record_convergence = true;
    sb.settings.flight_recorder = &recorder;
    BatchVector<real_type> x(4, sb.a.rows());
    solve_batch(sb.a, sb.b, x, sb.settings);

    const auto bundles = obs::list_bundles(dir);
    ASSERT_EQ(bundles.size(), 3u);
    for (const auto& bdir : bundles) {
        const auto bundle = obs::load_bundle(bdir);
        SolverSettings replay;
        ASSERT_TRUE(apply_bundle_meta(bundle.meta, replay));
        replay.use_initial_guess = true;  // x0.mtx IS the guess
        replay.flight_recorder = nullptr;

        const auto n = static_cast<index_type>(bundle.a.rows);
        const auto a1 = io::from_coo({bundle.a});
        BatchVector<real_type> b1(1, n);
        BatchVector<real_type> x0(1, n);
        for (index_type i = 0; i < n; ++i) {
            b1.entry(0)[i] = bundle.b[static_cast<std::size_t>(i)];
            x0.entry(0)[i] = bundle.x0[static_cast<std::size_t>(i)];
        }

        FailureClass from_name{};
        ASSERT_TRUE(failure_class_from_name(bundle.meta.failure, from_name));

        replay.lockstep_width = 0;
        BatchVector<real_type> xs = x0;
        EXPECT_EQ(solve_batch(a1, b1, xs, replay).log.failure(0), from_name)
            << "scalar replay of " << bdir;

        replay.lockstep_width = 8;
        BatchVector<real_type> xl = x0;
        EXPECT_EQ(solve_batch(a1, b1, xl, replay).log.failure(0), from_name)
            << "lockstep replay of " << bdir;

        replay.lockstep_width = 0;
        SimGpuExecutor exec(gpusim::v100());
        BatchVector<real_type> xg = x0;
        EXPECT_EQ(exec.solve(a1, b1, xg, replay).log.failure(0), from_name)
            << "simgpu replay of " << bdir;
    }
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Metrics export
// ---------------------------------------------------------------------

TEST(FailureMetricsTest, SolveExportsPerClassCounters)
{
    const auto before = obs::metrics().snapshot();
    obs::set_metrics_enabled(true);
    auto sb = seeded_batch();
    BatchVector<real_type> x(4, sb.a.rows());
    const auto result = solve_batch(sb.a, sb.b, x, sb.settings);
    obs::set_metrics_enabled(false);
    const auto after = obs::metrics().snapshot();

    const auto counts = result.log.failure_counts();
    const auto delta = [&](const std::string& name) {
        return after.counter(name) - before.counter(name);
    };
    EXPECT_EQ(delta("solve.fail.non_finite"),
              counts[static_cast<int>(FailureClass::non_finite)]);
    EXPECT_EQ(delta("solve.fail.max_iters") +
                  delta("solve.fail.breakdown_rho") +
                  delta("solve.fail.breakdown_omega") +
                  delta("solve.fail.stagnated") +
                  delta("solve.fail.non_finite"),
              4 - counts[static_cast<int>(FailureClass::converged)]);
}

}  // namespace
}  // namespace bsis
