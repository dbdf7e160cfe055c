// Ablation: where does the fused solver iteration's time go?
//
// Section IV of the paper argues the composition/fusion design around the
// costs of the solver components. This bench decomposes the modeled
// per-iteration time of every solver on every device into SpMV /
// reduction (dot, norm) / streaming-update shares -- showing that the
// block-wide reductions dominate at n = 992, which is (a) why fusing the
// kernel and keeping vectors in shared memory matters, and (b) what a
// reduction-free method (Chebyshev) trades iteration count against.
#include <iostream>

#include "common.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/occupancy.hpp"

int main()
{
    using namespace bsis;
    using namespace bsis::gpusim;

    const SystemShape shape{992, 9 * 992, 9};
    Table table({"device", "solver", "iteration_us", "spmv_prec_%",
                 "reductions_%", "updates_%"});
    struct Entry {
        const char* name;
        SolverType solver;
    };
    const Entry solvers[] = {
        {"bicgstab", SolverType::bicgstab},
        {"bicg", SolverType::bicg},
        {"cgs", SolverType::cgs},
        {"gmres(30)", SolverType::gmres},
        {"chebyshev", SolverType::chebyshev},
    };
    int count = 0;
    const auto* gpus = all_gpus(count);
    for (int g = 0; g < count; ++g) {
        const auto& device = gpus[g];
        for (const auto& entry : solvers) {
            const auto work =
                work_profile(entry.solver);
            const auto config = configure_storage(
                bicgstab_slots(1), shape.rows, device.warp_size,
                sizeof(real_type),
                static_cast<size_type>(device.max_shared_kib_per_block *
                                       1024));
            const auto block_threads =
                ell_block_size(shape.rows, device.warp_size);
            const auto occ = compute_occupancy(device, block_threads,
                                               config.shared_bytes);
            const auto cost =
                block_cost(device, shape, BatchFormat::ell, block_threads,
                           config, work, occ.blocks_per_cu);
            // The cost model's own decomposition: with the fused work
            // profile the reduction share is what survives fusion (the
            // standalone dot sweeps plus the cross-warp combines of the
            // norms riding on update sweeps).
            const double spmv = cost.iter_spmv_us;
            const double dots = cost.iter_reduction_us;
            const double updates = cost.iter_update_us;
            const double total = cost.per_iteration_us;
            table.new_row()
                .add(device.name)
                .add(entry.name)
                .add(total, 4)
                .add(100.0 * spmv / total, 3)
                .add(100.0 * dots / total, 3)
                .add(100.0 * updates / total, 3);
        }
    }
    bench::emit("ablation_reductions",
                "Ablation: modeled per-iteration cost decomposition of the "
                "fused solvers (ELL, Jacobi, 992-row systems)",
                table);
    std::cout
        << "\nReading guide: block-wide reductions are the largest single "
           "share of the\nKrylov solvers' iteration time -- the latency the "
           "paper's fused single-kernel\ndesign exists to amortize. "
           "Chebyshev trades them away for a-priori spectral\nbounds (and "
           "~3x the iterations on these matrices; see "
           "examples/solver_comparison).\n";
    return 0;
}
