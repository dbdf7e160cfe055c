#include "gpusim/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "lapack/banded_lu.hpp"
#include "lapack/banded_qr.hpp"
#include "util/error.hpp"

namespace bsis::gpusim {

namespace {

/// Serialized issue/latency cost of one dependent warp-instruction round
/// inside a block (calibrated: ~56 ns covers the partially-unhidden load
/// latency of each CSR row's gather+reduce chain; see EXPERIMENTS.md,
/// "Model calibration").
constexpr double warp_issue_us = 0.056;

constexpr double bytes_per_value = sizeof(real_type);
constexpr double bytes_per_index = sizeof(index_type);
constexpr double coalesce_bytes = 128.0;

double ceil_div(double a, double b) { return std::ceil(a / b); }

/// Transaction amplification of a warp load touching `bytes` consecutive
/// bytes per row segment: short rows waste most of each 128 B transaction
/// (the CSR value/index loads at 9 nnz per row), long coalesced runs
/// approach 1.
double amplification(double contiguous_bytes)
{
    const double segments =
        ceil_div(contiguous_bytes, coalesce_bytes) + 0.5;  // misalignment
    return std::max(1.0, segments * coalesce_bytes / contiguous_bytes);
}

}  // namespace

BlockCost block_cost(const DeviceSpec& device, const SystemShape& shape,
                     BatchFormat format, index_type block_threads,
                     const StorageConfig& config,
                     const SolverWorkProfile& work, int blocks_per_cu)
{
    BSIS_ENSURE_ARG(blocks_per_cu >= 1, "need at least one block per CU");
    const double c = blocks_per_cu;
    const double warp = device.warp_size;
    const double warps_in_block = std::max(1.0, block_threads / warp);
    const double n = shape.rows;
    const double nnz = shape.nnz;
    const double nnz_row = std::max<index_type>(shape.nnz_per_row, 1);

    // Per-block service rates (GB/s and GFlop/s), timeshared between the
    // blocks co-resident on a CU.
    const double dram_cu = device.per_cu_dram_gbps();
    const double l1_rate = dram_cu * device.l1_bw_ratio / c;
    const double l2_rate = dram_cu * device.l2_bw_ratio / c;
    const double shared_rate = l1_rate;
    const double flop_rate = device.per_cu_gflops() / c;

    // Cache residency of the global working set (matrix + rhs + spilled
    // vectors): the shared-memory carve-out shrinks the L1, and the
    // device-wide L2 is split among ALL resident blocks -- whatever misses
    // both levels streams from DRAM at the block's bandwidth share. (The
    // A100's 40 MiB L2 holding every block's working set vs the V100's
    // 6 MiB is exactly the contrast of the paper's Table II.)
    const int num_spilled = config.num_global;
    const double working_set =
        nnz * (bytes_per_value + bytes_per_index) +
        n * bytes_per_value * (1.0 + num_spilled);
    const double l1_capacity =
        std::max(0.0, device.l1_shared_kib_per_cu * 1024.0 -
                          static_cast<double>(config.shared_bytes) * c) /
        c;
    const double l1_resident = std::min(1.0, l1_capacity / working_set);
    const double l2_capacity_per_block =
        device.l2_mib * 1024.0 * 1024.0 / (device.num_cu * c);
    const double l2_resident =
        std::min(1.0, l2_capacity_per_block / working_set);
    const double dram_rate = dram_cu / c;
    const double global_rate =
        l1_resident * l1_rate +
        (1.0 - l1_resident) *
            (l2_resident * l2_rate + (1.0 - l2_resident) * dram_rate);

    const double frac_shared =
        config.slots.empty()
            ? 0.0
            : static_cast<double>(config.num_shared) /
                  static_cast<double>(config.slots.size());
    const double vec_rate =
        frac_shared * shared_rate + (1.0 - frac_shared) * global_rate;

    BlockCost cost;

    // --- SpMV ---
    double instr_rounds = 0;
    double lane_util = 1.0;
    double value_amp = 1.0;
    if (format == BatchFormat::csr) {
        // Warp-per-row: each warp serially walks rows/warps_in_block rows;
        // each row costs the element loads plus a shuffle reduction tree.
        const double rows_per_warp = ceil_div(n, warps_in_block);
        const double chunks = ceil_div(nnz_row, warp);
        const double reduce_stages =
            std::ceil(std::log2(std::min(nnz_row, warp))) + 1.0;
        instr_rounds = rows_per_warp * (chunks * 3.0 + reduce_stages + 2.0);
        lane_util = std::min(1.0, nnz_row / warp);
        value_amp = amplification(nnz_row * bytes_per_value);
    } else {
        // Thread-per-row: nnz_per_row coalesced rounds over the rows.
        const double chunks = ceil_div(n, block_threads);
        instr_rounds = nnz_row * chunks * 3.0 + chunks;
        const double padded = ceil_div(n, warp) * warp;
        lane_util = n / padded;
        value_amp = 1.0;
    }
    const double spmv_bytes =
        nnz * bytes_per_value * value_amp + nnz * bytes_per_index +
        n * bytes_per_value * 1.5;  // x gathers + y, partially L1-served
    const double spmv_flops = 2.0 * nnz;
    const double t_spmv_mem = spmv_bytes / (global_rate * 1e3);  // us
    const double t_spmv_flop =
        spmv_flops / (flop_rate * lane_util * 1e3);
    cost.spmv_us = instr_rounds * warp_issue_us +
                   std::max(t_spmv_mem, t_spmv_flop) +
                   device.barrier_latency_us;

    // Exposed latency of touching spilled (global) vectors: one
    // dependent pass per operand that is not in shared memory.
    const double spill_penalty =
        (1.0 - frac_shared) * device.spill_latency_us;

    // --- block-wide reduction (dot / norm) ---
    const double dot_bytes = 2.0 * n * bytes_per_value;
    cost.dot_us = dot_bytes / (vec_rate * 1e3) +
                  device.reduction_latency_us + spill_penalty;

    // --- streaming vector update ---
    const double axpy_bytes = 3.0 * n * bytes_per_value;
    const double axpy_flops = 2.0 * n;
    cost.axpy_us =
        std::max(axpy_bytes / (vec_rate * 1e3),
                 axpy_flops / (flop_rate * device.stream_efficiency * 1e3)) +
        ceil_div(n, block_threads) * 3.0 * warp_issue_us +
        device.barrier_latency_us + 1.5 * spill_penalty;

    // --- preconditioner application (scalar Jacobi = one elementwise op) --
    cost.precond_us = cost.axpy_us;

    cost.setup_us = work.setup_spmvs * cost.spmv_us +
                    work.setup_dots * cost.dot_us +
                    work.setup_axpys * cost.axpy_us +
                    cost.precond_us;  // Jacobi generation

    cost.iter_spmv_us = work.spmv_per_iter * cost.spmv_us +
                        work.precond_per_iter * cost.precond_us;
    if (work.has_fused_shape()) {
        // Fused kernel: price SWEEPS, not BLAS calls. A norm fused into an
        // update sweep reuses that sweep's traffic and pays only the
        // cross-warp combine latency. Extra reduction RESULTS sharing a
        // sweep that already combines (the dual-dot's second result, the
        // pipelined dot4's extra outputs) cost a fraction of a combine
        // round -- their partials ride the same scratch publish/barrier
        // sequence; extra reduction VECTORS (a third operand streamed by a
        // multi-output sweep) cost that vector's stream time; a dot fused
        // into a NON-reduction sweep (pipelined CG's r.z on the
        // preconditioner sweep) adds a full combine round there.
        const double combine_us =
            device.reduction_latency_us + spill_penalty;
        const double vec_stream_us = n * bytes_per_value / (vec_rate * 1e3);
        cost.iter_update_us =
            (work.fused_update_sweeps + work.fused_norm_update_sweeps) *
                cost.axpy_us +
            work.fused_extra_combines * combine_us;
        cost.iter_reduction_us =
            work.fused_dot_sweeps * cost.dot_us +
            work.fused_extra_dot_vectors * vec_stream_us +
            work.fused_norm_update_sweeps * combine_us +
            work.fused_extra_dots * 0.25 * combine_us;
    } else {
        cost.iter_reduction_us = work.dots_per_iter * cost.dot_us;
        cost.iter_update_us = work.axpys_per_iter * cost.axpy_us;
    }
    cost.per_iteration_us =
        cost.iter_spmv_us + cost.iter_reduction_us + cost.iter_update_us;
    return cost;
}

double direct_qr_system_seconds(const DeviceSpec& device, index_type rows,
                                index_type kl, index_type ku)
{
    const double flops = lapack::gbqr_flops(rows, kl, ku);
    const double device_flops_per_s =
        device.peak_fp64_tflops * 1e12 * device.direct_qr_efficiency;
    return flops / device_flops_per_s;
}

double cpu_gbsv_system_seconds(const CpuSpec& cpu, index_type rows,
                               index_type kl, index_type ku)
{
    const double flops = lapack::gbsv_flops(rows, kl, ku);
    const double core_flops_per_s = cpu.peak_fp64_gflops_per_core * 1e9 *
                                    cpu.banded_lu_efficiency;
    return flops / core_flops_per_s;
}

double transfer_seconds(const DeviceSpec& device, double bytes)
{
    return device.link_latency_us * 1e-6 +
           bytes / (device.link_bw_gbps * 1e9);
}

double thomas_batched_seconds(const DeviceSpec& device, index_type n,
                              size_type num_batch)
{
    // Serial floor: each thread walks a 2n-step dependent recurrence; the
    // per-step latency (division + fma) is only hidden ACROSS systems.
    const double dep_step_us = 0.020;  // ~division latency
    const double serial_floor = 2.0 * n * dep_step_us * 1e-6;
    // Throughput ceiling: interleaved storage streams the three diagonals
    // and rhs once; effective rate limited by memory.
    const double bytes = static_cast<double>(num_batch) * n * 4.0 *
                         sizeof(real_type) * 2.0;  // read + write traffic
    const double throughput = bytes / (device.mem_bw_gbps * 1e9 * 0.6);
    return device.launch_overhead_us * 1e-6 +
           std::max(serial_floor, throughput);
}

double cyclic_reduction_batched_seconds(const DeviceSpec& device,
                                        index_type n, size_type num_batch)
{
    // 2 * ceil(log2 n) dependent levels, each a device-wide sweep.
    const double levels =
        2.0 * std::ceil(std::log2(std::max<index_type>(n, 2)));
    const double level_latency = device.launch_overhead_us * 1e-6;
    // ~12 flops per eliminated unknown per level, summed over a halving
    // sequence ~ 12 * 2n, plus 5n in the back substitutions.
    const double flops = static_cast<double>(num_batch) * (29.0 * n);
    const double work =
        flops / (device.peak_fp64_tflops * 1e12 * 0.04);
    return levels * level_latency + work;
}

double dense_lu_batched_seconds(const DeviceSpec& device, index_type n,
                                size_type num_batch)
{
    // Batched getrf+getrs: (2/3) n^3 + 2 n^2 flops per system at the
    // throughput MAGMA-class batched LU reaches for ~1000-row systems.
    const double flops =
        static_cast<double>(num_batch) *
        (2.0 / 3.0 * static_cast<double>(n) * n * n +
         2.0 * static_cast<double>(n) * n);
    return device.launch_overhead_us * 1e-6 +
           flops / (device.peak_fp64_tflops * 1e12 * 0.25);
}

}  // namespace bsis::gpusim
