// Supplementary to Fig. 2 / Table III: the per-iteration residual decay of
// the batched BiCGStab on one ion and one electron system (the per-system
// logging capability of the paper's Listing 1 LogType). The ion residual
// collapses in a handful of iterations (spectrum clustered at 1); the
// electron takes ~30 with the characteristic BiCGStab irregularity.
#include <algorithm>
#include <iostream>

#include "common.hpp"
#include "core/bicgstab.hpp"
#include "core/precond.hpp"
#include "core/stop.hpp"
#include "obs/convergence.hpp"

int main()
{
    using namespace bsis;
    bench::XgcBatch problem(2);  // one node: ion (0) + electron (1)
    auto ell = to_ell(problem.a);

    Table table({"iteration", "ion_residual", "electron_residual"});
    // Room for all 501 iteration boundaries, so nothing is thinned out.
    obs::ConvergenceHistory history;
    history.reset(2, 512);
    Workspace ws(problem.a.rows(), bicgstab_work_vectors + 1);
    for (size_type sys = 0; sys < 2; ++sys) {
        BatchVector<real_type> x(1, problem.a.rows());
        JacobiPrec prec;
        prec.generate(ell.entry(sys), ws.slot(bicgstab_work_vectors));
        const auto result = bicgstab_kernel(
            ell.entry(sys), problem.rhs().entry(sys), x.entry(0), prec,
            AbsResidualStop{1e-10}, 500, ws, 0, {&history, sys});
        std::cout << (sys == 0 ? "ion" : "electron") << ": "
                  << result.iterations << " iterations, final residual "
                  << result.residual_norm << "\n";
    }
    const std::size_t len =
        std::max(history.points(0).size(), history.points(1).size());
    for (std::size_t it = 0; it < len; ++it) {
        table.new_row().add(static_cast<std::int64_t>(it));
        for (size_type sys = 0; sys < 2; ++sys) {
            const auto& points = history.points(sys);
            if (it < points.size()) {
                table.add(points[it].residual, 6);
            } else {
                table.add("-");
            }
        }
    }
    bench::emit("convergence_history",
                "Residual decay of batched BiCGStab on one ion and one "
                "electron system (abs tol 1e-10, zero guess)",
                table);
    return 0;
}
