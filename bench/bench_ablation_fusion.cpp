// Ablations for the Section IV design choices:
//   1. Single fused solver kernel vs one kernel launch per solver
//      component (the launch-overhead argument for the fused design).
//   2. Shared-memory placement of the intermediate vectors vs all vectors
//      spilled to global memory (the Section IV-D argument).
// Both are evaluated with the per-block cost model on every device.
#include <iostream>

#include "common.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/occupancy.hpp"

int main()
{
    using namespace bsis;
    using namespace bsis::gpusim;

    const SystemShape shape{992, 9 * 992, 9};
    // Fused profile: the sweep structure of the single-pass kernels.
    // Unfused profile: one sweep per BLAS call (the reference path).
    const auto work_fused =
        work_profile(SolverType::bicgstab);
    const auto work_unfused =
        work_profile(SolverType::bicgstab, 30, /*fused=*/false);
    const int iterations = 20;
    const size_type nbatch = 960;

    Table table({"device", "variant", "total_ms", "vs_fused"});
    int count = 0;
    const auto* gpus = all_gpus(count);
    for (int g = 0; g < count; ++g) {
        const auto& device = gpus[g];
        const auto block_threads =
            ell_block_size(shape.rows, device.warp_size);

        const auto kernel_time = [&](const StorageConfig& config,
                                     const SolverWorkProfile& work,
                                     double launches_per_solve) {
            const auto occ = compute_occupancy(device, block_threads,
                                               config.shared_bytes);
            const auto cost =
                block_cost(device, shape, BatchFormat::ell, block_threads,
                           config, work, occ.blocks_per_cu);
            std::vector<double> durations(
                static_cast<std::size_t>(nbatch),
                cost.block_us(iterations) * 1e-6);
            const auto schedule = schedule_blocks(
                durations, occ.device_slots(device), device.scheduling);
            return schedule.makespan_seconds +
                   launches_per_solve * device.launch_overhead_us * 1e-6;
        };

        const auto fused_config = configure_storage(
            bicgstab_slots(1), shape.rows, device.warp_size,
            sizeof(real_type),
            static_cast<size_type>(device.max_shared_kib_per_block * 1024));
        // Fully fused: ONE launch for the entire batched solve, single-pass
        // sweeps, shared-memory placement.
        const double fused = kernel_time(fused_config, work_fused, 1.0);

        // Sweep-fusion ablation alone: still one launch and the shared
        // placement, but one sweep per BLAS call (the pre-fusion host
        // path).
        const double unfused_sweeps =
            kernel_time(fused_config, work_unfused, 1.0);

        // Component kernels: every SpMV / dot / axpy / precond apply is a
        // separate launch, each iteration of every wave.
        const double ops_per_iteration =
            work_unfused.spmv_per_iter + work_unfused.precond_per_iter +
            work_unfused.dots_per_iter + work_unfused.axpys_per_iter;
        // Per-component launches cannot keep data in shared memory across
        // kernels (nor fuse sweeps): the unfused variant also loses the
        // placement.
        const auto spilled_config =
            configure_storage(bicgstab_slots(1), shape.rows,
                              device.warp_size, sizeof(real_type), 0);
        const double unfused = kernel_time(spilled_config, work_unfused,
                                           ops_per_iteration * iterations);

        // Shared-memory ablation alone: fused launch count and sweeps, but
        // nothing placed in shared memory.
        const double no_shared =
            kernel_time(spilled_config, work_fused, 1.0);

        table.new_row()
            .add(device.name)
            .add("fused + shared placement")
            .add(fused * 1e3, 5)
            .add(1.0, 3);
        table.new_row()
            .add(device.name)
            .add("fused launch, unfused sweeps")
            .add(unfused_sweeps * 1e3, 5)
            .add(unfused_sweeps / fused, 3);
        table.new_row()
            .add(device.name)
            .add("fused, no shared placement")
            .add(no_shared * 1e3, 5)
            .add(no_shared / fused, 3);
        table.new_row()
            .add(device.name)
            .add("kernel per component")
            .add(unfused * 1e3, 5)
            .add(unfused / fused, 3);
    }
    bench::emit("ablation_fusion",
                "Ablation: fused solver kernel and shared-memory placement "
                "(960 systems, 20 iterations/solve, BiCGStab-ELL)",
                table);
    std::cout << "\nShape check (paper Section IV: the fused kernel avoids "
                 "per-component\nlaunch overhead and keeps intermediate "
                 "vectors in shared memory; both\nablations must cost "
                 "more than the fused design)\n";
    return 0;
}
