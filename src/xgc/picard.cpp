#include "xgc/picard.hpp"

#include <cmath>

#include "blas/kernels.hpp"
#include "obs/telemetry.hpp"
#include "util/error.hpp"

namespace bsis::xgc {

real_type PicardReport::max_conservation_error() const
{
    real_type m = 0;
    for (const auto e : conservation_errors) {
        m = std::max(m, e);
    }
    return m;
}

double PicardReport::mean_species_iterations(int picard_index,
                                             size_type species,
                                             size_type num_species) const
{
    const auto& log =
        linear_logs[static_cast<std::size_t>(picard_index)];
    double sum = 0;
    size_type count = 0;
    for (size_type sys = species; sys < log.num_batch();
         sys += num_species) {
        sum += log.iterations(sys);
        ++count;
    }
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

PicardReport implicit_collision_step(CollisionWorkload& workload,
                                     const PicardSettings& settings,
                                     const BatchLinearSolver& solve)
{
    BSIS_ENSURE_ARG(settings.num_iterations >= 1,
                    "need at least one Picard iteration");
    BSIS_ENSURE_ARG(settings.dt > 0, "time step must be positive");

    const size_type nsys = workload.num_systems();
    obs::ScopedSpan step_span("picard_step", "xgc",
                              static_cast<std::int64_t>(nsys));
    const index_type n = workload.grid().rows();

    // f^n (right-hand side of every linear solve in this step).
    BatchVector<real_type> f_n = workload.distributions();
    // Picard iterate; starts from f^n.
    BatchVector<real_type> x = f_n;
    // Nonlinear residual f^n - A(x) x of every system.
    BatchVector<real_type> residual(nsys, n);

    auto a = workload.make_matrix_batch();

    PicardReport report;
    // Per-system ||f^n||^2 and the conserved targets (the pre-step
    // invariants). Every system's work is independent and the shapes are
    // fixed above, so nothing in these team loops throws; the squares are
    // summed serially in system order, so f_n_norm does not depend on the
    // thread count.
    const auto nsys_u = static_cast<std::size_t>(nsys);
    std::vector<real_type> f_n_squares(nsys_u);
    std::vector<ConservedQuantities> targets(nsys_u);
#pragma omp parallel for schedule(static)
    for (size_type sys = 0; sys < nsys; ++sys) {
        const auto fv = ConstVecView<real_type>(f_n.entry(sys));
        f_n_squares[static_cast<std::size_t>(sys)] = blas::dot(fv, fv);
        targets[static_cast<std::size_t>(sys)] =
            conserved(workload.grid(), fv);
    }
    real_type f_n_norm = 0;
    for (const auto square : f_n_squares) {
        f_n_norm += square;
    }
    f_n_norm = std::sqrt(f_n_norm);

    for (int k = 0; k < settings.num_iterations; ++k) {
        obs::ScopedSpan iter_span("picard_iteration", "xgc", k);
        obs::traced("assemble_batch", [&] {
            workload.assemble_batch(x, f_n, settings.dt, a);
        });

        // True nonlinear residual ||f^n - A(x) x|| / ||f^n||: the honest
        // fixed-point convergence measure. (Monitoring only the change of
        // the iterate would be fooled by a loose linear solver whose
        // warm-started solves no-op.)
        real_type res = 0;
        obs::traced("nonlinear_residual", [&] {
            // Shapes are fixed above and checked by assemble_batch, so
            // nothing in this region throws.
#pragma omp parallel for schedule(static)
            for (size_type sys = 0; sys < nsys; ++sys) {
                auto rv = residual.entry(sys);
                spmv(a.entry(sys), ConstVecView<real_type>(x.entry(sys)),
                     rv);
                const auto bv = f_n.entry(sys);
                for (index_type i = 0; i < n; ++i) {
                    rv[i] = bv[i] - rv[i];
                }
            }
            // Summed serially in system order, so nonlinear_change does
            // not depend on the thread count.
            for (size_type sys = 0; sys < nsys; ++sys) {
                const auto rv = residual.entry(sys);
                for (index_type i = 0; i < n; ++i) {
                    res += rv[i] * rv[i];
                }
            }
        });
        report.nonlinear_change =
            std::sqrt(res) / std::max(f_n_norm, real_type{1e-30});
        if (settings.nonlinear_tol > 0 && k > 0 &&
            report.nonlinear_change < settings.nonlinear_tol) {
            report.converged = true;
            break;
        }

        if (!settings.warm_start) {
            x.fill(real_type{0});
        }
        report.linear_logs.push_back(
            solve(a, f_n, x, settings.warm_start, k));
        ++report.picard_iterations;
    }
    if (settings.nonlinear_tol == 0) {
        report.converged = true;
    }

    // Conservation of the raw Picard solution, then the post-step moment
    // fix (production XGC behavior), then the accepted-step conservation,
    // each system on its own on the team.
    report.raw_conservation_errors.resize(nsys_u);
    report.conservation_errors.resize(nsys_u);
    const bool fix = settings.conservation_fix;
#pragma omp parallel for schedule(static)
    for (size_type sys = 0; sys < nsys; ++sys) {
        const auto si = static_cast<std::size_t>(sys);
        report.raw_conservation_errors[si] = conservation_error(
            targets[si], conserved(workload.grid(), x.entry(sys)));
        if (fix) {
            moment_fix(workload.grid(), x.entry(sys), targets[si]);
        }
        report.conservation_errors[si] = conservation_error(
            targets[si], conserved(workload.grid(), x.entry(sys)));
    }
    workload.distributions() = x;
    if (obs::metrics_enabled()) {
        auto& m = obs::metrics();
        m.add_named("xgc.picard_steps");
        m.add_named("xgc.picard_iterations", report.picard_iterations);
        m.set_named("xgc.nonlinear_residual",
                    static_cast<double>(report.nonlinear_change));
        m.set_named("xgc.max_conservation_error",
                    static_cast<double>(report.max_conservation_error()));
        FailureCounts fails{};
        for (const auto& log : report.linear_logs) {
            const auto counts = log.failure_counts();
            for (std::size_t c = 0; c < counts.size(); ++c) {
                fails[c] += counts[c];
            }
        }
        record_failure_counts(m, "xgc", fails);
    }
    return report;
}

BatchLinearSolver make_reference_solver(SolverSettings base)
{
    return [base](const BatchCsr<real_type>& a,
                  const BatchVector<real_type>& b,
                  BatchVector<real_type>& x, bool warm_start,
                  int /*picard_index*/) {
        SolverSettings settings = base;
        settings.use_initial_guess = warm_start;
        return solve_batch(a, b, x, settings).log;
    };
}

}  // namespace bsis::xgc
