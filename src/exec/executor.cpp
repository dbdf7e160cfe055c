#include "exec/executor.hpp"

#include <algorithm>

#include "gpusim/simt.hpp"
#include "gpusim/simt_kernels.hpp"
#include "lapack/banded_lu.hpp"
#include "matrix/conversions.hpp"
#include "obs/attribution.hpp"
#include "obs/telemetry.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace bsis {

namespace {

std::vector<VectorSlot> slots_for(const SolverSettings& settings)
{
    const int prec =
        precond_work_vectors(settings.precond, settings.block_jacobi_size);
    switch (settings.solver) {
    case SolverType::bicgstab:
        return bicgstab_slots(prec);
    case SolverType::bicg:
        return bicg_slots(prec);
    case SolverType::cgs:
        return cgs_slots(prec);
    case SolverType::cg:
        return cg_slots(prec);
    case SolverType::gmres:
        return gmres_slots(settings.gmres_restart, prec);
    case SolverType::richardson:
        return richardson_slots(prec);
    case SolverType::chebyshev:
        return chebyshev_slots(prec);
    }
    return {};
}

gpusim::SystemShape shape_of(const BatchCsr<real_type>& a)
{
    // max_nnz_per_row is cached on the batch at construction; this runs
    // per solve and must not rescan the row pointers.
    return {a.rows(), a.nnz_per_entry(), a.max_nnz_per_row()};
}

gpusim::SystemShape shape_of(const BatchEll<real_type>& a)
{
    return {a.rows(), a.stored_per_entry(), a.nnz_per_row()};
}

size_type pattern_bytes(const BatchCsr<real_type>& a)
{
    return static_cast<size_type>(
        (a.row_ptrs().size() + a.col_idxs().size()) * sizeof(index_type));
}

size_type pattern_bytes(const BatchEll<real_type>& a)
{
    return static_cast<size_type>(a.col_idxs().size() * sizeof(index_type));
}

size_type values_bytes(const BatchCsr<real_type>& a)
{
    return a.num_batch() * a.nnz_per_entry() *
           static_cast<size_type>(sizeof(real_type));
}

size_type values_bytes(const BatchEll<real_type>& a)
{
    return a.num_batch() * a.stored_per_entry() *
           static_cast<size_type>(sizeof(real_type));
}

/// Pattern arrays the traced kernels need, per matrix format. Unused
/// arrays point to an empty vector (the other format's kernel never
/// touches them).
struct TraceInputs {
    gpusim::TracedFormat format{};
    const std::vector<index_type>* row_ptrs;
    const std::vector<index_type>* csr_cols;
    const std::vector<index_type>* ell_cols;
    index_type nnz_per_row = 0;
    index_type nnz_stored = 0;
};

const std::vector<index_type>& no_pattern()
{
    static const std::vector<index_type> empty;
    return empty;
}

TraceInputs trace_inputs(const BatchCsr<real_type>& a)
{
    return {gpusim::TracedFormat::csr, &a.row_ptrs(), &a.col_idxs(),
            &no_pattern(), 0, a.nnz_per_entry()};
}

TraceInputs trace_inputs(const BatchEll<real_type>& a)
{
    return {gpusim::TracedFormat::ell, &no_pattern(), &no_pattern(),
            &a.col_idxs(), a.nnz_per_row(), a.stored_per_entry()};
}

}  // namespace

template <typename BatchMatrix>
GpuSolveReport SimGpuExecutor::solve_impl(const BatchMatrix& a,
                                          const BatchVector<real_type>& b,
                                          BatchVector<real_type>& x,
                                          const SolverSettings& settings,
                                          BatchFormat format,
                                          bool include_transfers) const
{
    GpuSolveReport report;
    obs::ScopedSpan solve_span("gpu_solve", "executor",
                               static_cast<std::int64_t>(a.num_batch()));
    const auto shape = shape_of(a);

    // 1. Shared-memory configuration (Section IV-D).
    report.storage = configure_storage(
        slots_for(settings), shape.rows, device_.warp_size,
        sizeof(real_type),
        static_cast<size_type>(device_.max_shared_kib_per_block * 1024));

    // 2. Block size from the tuning rules (Section IV-E) and occupancy.
    report.block_threads =
        format == BatchFormat::ell
            ? ell_block_size(shape.rows, device_.warp_size)
            : csr_block_size(shape.rows, device_.warp_size);
    report.occupancy = gpusim::compute_occupancy(device_,
                                                 report.block_threads,
                                                 report.storage.shared_bytes);

    // 3. Functional solve (the real arithmetic; gives iteration counts).
    Timer timer;
    auto result = solve_batch(a, b, x, settings);
    report.wall_seconds = timer.seconds();
    report.log = std::move(result.log);
    report.history = std::move(result.history);
    report.failures = report.log.failure_counts();

    // 4. Per-block cost model and block schedule. Co-residency only
    // throttles a block when the batch actually fills the CUs that far.
    const int resident = static_cast<int>(std::min<size_type>(
        report.occupancy.blocks_per_cu,
        std::max<size_type>(1, (a.num_batch() + device_.num_cu - 1) /
                                   device_.num_cu)));
    report.block_cost =
        gpusim::block_cost(device_, shape, format, report.block_threads,
                           report.storage, result.work, resident);
    std::vector<double> durations;
    durations.reserve(static_cast<std::size_t>(report.log.num_batch()));
    for (size_type i = 0; i < report.log.num_batch(); ++i) {
        durations.push_back(
            report.block_cost.block_us(report.log.iterations(i)) * 1e-6);
    }
    const auto schedule = gpusim::schedule_blocks_timeline(
        durations, report.occupancy.device_slots(device_),
        device_.scheduling);
    report.num_waves = schedule.num_waves;
    report.kernel_seconds =
        device_.launch_overhead_us * 1e-6 + schedule.makespan_seconds;
    if (obs::trace_enabled()) {
        // Render the modeled device timeline as a second Perfetto process:
        // one complete event per scheduled block, on its resident slot's
        // track, shifted past the modeled launch overhead.
        auto& trace = obs::trace();
        const double launch_us = device_.launch_overhead_us;
        trace.emit_complete("kernel_launch", "gpusim",
                            obs::TraceSession::device_pid, 0, 0.0,
                            launch_us);
        for (std::size_t i = 0; i < schedule.blocks.size(); ++i) {
            const auto& blk = schedule.blocks[i];
            trace.emit_complete(
                "block", "gpusim", obs::TraceSession::device_pid, blk.slot,
                launch_us + blk.start_seconds * 1e6,
                (blk.end_seconds - blk.start_seconds) * 1e6,
                static_cast<std::int64_t>(i));
        }
    }

    // 4b. Live SIMT profile (the Table II counters, measured on THIS
    // solve's blocks with their actual iteration counts). Runs when
    // explicitly requested or while telemetry is on; only the fused
    // BiCGStab kernel has a traced twin.
    if ((profile_ || obs::enabled()) &&
        settings.solver == SolverType::bicgstab && settings.fused_kernels &&
        a.num_batch() > 0) {
        const auto inputs = trace_inputs(a);
        const gpusim::ProfilePattern pattern{
            inputs.format,      inputs.row_ptrs,    inputs.csr_cols,
            inputs.ell_cols,    inputs.nnz_per_row, inputs.nnz_stored};
        const auto sizing = gpusim::profile_cache_sizing(
            device_, report.storage, report.block_threads,
            pattern_bytes(a) / static_cast<size_type>(sizeof(index_type)));
        std::vector<int> block_iters;
        const auto sample =
            std::min<size_type>(profile_sample_blocks, a.num_batch());
        block_iters.reserve(static_cast<std::size_t>(sample));
        for (size_type blk = 0; blk < sample; ++blk) {
            block_iters.push_back(std::max(1, report.log.iterations(blk)));
        }
        report.profile = gpusim::profile_bicgstab(
            device_, report.storage, report.block_threads, pattern,
            shape.rows, block_iters, sizing, settings.pipelined);
        report.profiled = true;
    }
    if (obs::metrics_enabled()) {
        auto& m = obs::metrics();
        m.add_named("gpusim.solves");
        m.set_named("gpusim.kernel_seconds", report.kernel_seconds);
        m.set_named("gpusim.num_waves", report.num_waves);
        m.set_named("gpusim.blocks_per_cu",
                    report.occupancy.blocks_per_cu);
        m.set_named("gpusim.device_slots",
                    report.occupancy.device_slots(device_));
        if (report.profiled) {
            m.set_named("gpusim.warp_utilization",
                        report.profile.warp_utilization());
            m.set_named("gpusim.l1_hit_rate", report.profile.l1_hit_rate());
            m.set_named("gpusim.l2_hit_rate", report.profile.l2_hit_rate());
        }
        record_failure_counts(m, "gpusim", report.failures);

        // Performance attribution of the MODELED device run: the block
        // cost decomposition splits the kernel time into phases, the
        // work ledger prices their bytes/flops, and the join yields the
        // model's implied per-block bandwidth and roofline position
        // under the device peaks. Drift then cross-checks (a) the
        // decomposition against the ledger's device-roofline floor and
        // (b) -- when the live SIMT profile ran -- the ledger against
        // the TRACED per-iteration flop and transaction counters.
        const double total_iters =
            static_cast<double>(report.log.total_iterations());
        obs::LedgerShape lshape;
        lshape.rows = shape.rows;
        lshape.stored_nnz = shape.nnz;
        lshape.nnz_per_row = shape.nnz_per_row;
        const auto lformat = format == BatchFormat::ell
                                 ? obs::LedgerFormat::ell
                                 : obs::LedgerFormat::csr;
        const double systems = static_cast<double>(a.num_batch());
        const auto ledger = obs::work_ledger(result.work, lshape, lformat,
                                             total_iters, systems);

        // Modeled per-phase busy time summed over every block (seconds);
        // iter_spmv_us bundles the preconditioner applications, so the
        // phases are rebuilt from the unit costs.
        const auto& cost = report.block_cost;
        obs::PhaseTotals modeled;
        const auto phase_idx = [](obs::Phase p) {
            return static_cast<int>(p);
        };
        modeled.seconds[phase_idx(obs::Phase::spmv)] =
            (result.work.spmv_per_iter * cost.spmv_us * total_iters +
             result.work.setup_spmvs * cost.spmv_us * systems) *
            1e-6;
        modeled.seconds[phase_idx(obs::Phase::precond)] =
            (result.work.precond_per_iter * cost.precond_us * total_iters +
             (result.work.precond_per_iter > 0 ? cost.precond_us : 0.0) *
                 systems) *
            1e-6;
        modeled.seconds[phase_idx(obs::Phase::reduction)] =
            (cost.iter_reduction_us * total_iters +
             result.work.setup_dots * cost.dot_us * systems) *
            1e-6;
        modeled.seconds[phase_idx(obs::Phase::update)] =
            (cost.iter_update_us * total_iters +
             result.work.setup_axpys * cost.axpy_us * systems) *
            1e-6;

        const obs::RooflinePeaks device_peaks{
            device_.mem_bw_gbps, device_.peak_fp64_tflops * 1e3};
        const auto attribution =
            obs::attribute_phases(ledger, modeled, device_peaks);
        obs::record_phase_attribution(m, "gpusim", attribution);
        m.set_named("gpusim.roofline.peak_gbps", device_peaks.gbps);
        m.set_named("gpusim.roofline.peak_gflops", device_peaks.gflops);

        // Sweeps per iteration per phase (plus per-system setup sweeps):
        // each full-vector sweep ends in a block-wide barrier, so the
        // drift floor below can price the synchronization the logical
        // ledger's pure-bandwidth view is blind to. At collision-operator
        // sizes the sweeps are latency-dominated, and a bytes-only floor
        // would flag the reduction phase (whose latency per byte is
        // largest) as permanently drifted.
        const auto& w0 = result.work;
        double sweeps[obs::phase_count] = {};
        sweeps[phase_idx(obs::Phase::spmv)] =
            w0.spmv_per_iter * total_iters + w0.setup_spmvs * systems;
        sweeps[phase_idx(obs::Phase::precond)] =
            w0.precond_per_iter * total_iters +
            (w0.precond_per_iter > 0 ? systems : 0.0);
        if (w0.has_fused_shape()) {
            sweeps[phase_idx(obs::Phase::update)] =
                (w0.fused_update_sweeps + w0.fused_norm_update_sweeps) *
                total_iters;
            sweeps[phase_idx(obs::Phase::reduction)] =
                w0.fused_dot_sweeps * total_iters;
        } else {
            sweeps[phase_idx(obs::Phase::update)] =
                w0.axpys_per_iter * total_iters;
            sweeps[phase_idx(obs::Phase::reduction)] =
                w0.dots_per_iter * total_iters;
        }
        sweeps[phase_idx(obs::Phase::update)] += w0.setup_axpys * systems;
        sweeps[phase_idx(obs::Phase::reduction)] += w0.setup_dots * systems;

        double measured_phase[obs::phase_count] = {};
        double floor_phase[obs::phase_count] = {};
        for (int p = 0; p < obs::phase_count; ++p) {
            if (p == phase_idx(obs::Phase::other)) {
                continue;
            }
            measured_phase[p] = modeled.seconds[p];
            const auto& w = ledger.phase[p];
            // Roofline + synchronization floor: streaming time at the
            // full-device peaks (which scale every phase identically --
            // drift only compares shares, so the per-block bandwidth
            // split cancels out) plus the device's cross-warp combine
            // latency per ledger reduction point and a barrier per
            // sweep. What the floor still omits (instruction issue,
            // spill penalties) is exactly what the drift band tolerates.
            floor_phase[p] =
                std::max(w.bytes() / (device_peaks.gbps * 1e9),
                         w.flops / (device_peaks.gflops * 1e9)) +
                (w.reductions * device_.reduction_latency_us +
                 sweeps[p] * device_.barrier_latency_us) *
                    1e-6;
        }
        // The floor prices streaming at the full-device peaks while the
        // cost model prices it at the block's cache-aware bandwidth
        // share, so the stream:latency balance of the two sides differs
        // by construction; this model-vs-floor check gets twice the band
        // of the measured-path checks.
        obs::DriftConfig drift_cfg;
        drift_cfg.ratio_threshold *= 2.0;
        // The "measured" side here is the model's own deterministic
        // decomposition -- no wall-clock noise -- so the minimum-total
        // guard for noisy measurements does not apply.
        drift_cfg.min_total_measured = 0;
        auto drift =
            obs::detect_drift(measured_phase, floor_phase, drift_cfg);
        if (report.profiled && total_iters > 0) {
            // The profile replays `sample` blocks for their actual
            // iteration counts; normalize both sides to one iteration of
            // one system before comparing.
            double profiled_iters = 0;
            const auto sample =
                std::min<size_type>(profile_sample_blocks, a.num_batch());
            for (size_type blk = 0; blk < sample; ++blk) {
                profiled_iters += std::max(1, report.log.iterations(blk));
            }
            const auto per_iter =
                obs::work_ledger(result.work, lshape, lformat, 1.0, 0.0)
                    .total();
            if (profiled_iters > 0 && per_iter.flops > 0) {
                obs::add_scalar_check(
                    drift, "traced_flops_per_iter",
                    static_cast<double>(report.profile.counters.flops) /
                        profiled_iters,
                    per_iter.flops, 2.5);
                // Traced bytes are 128 B coalesced transactions into L1,
                // which include transaction amplification and re-reads
                // the logical ledger deliberately omits -- hence the
                // loose threshold.
                obs::add_scalar_check(
                    drift, "traced_bytes_per_iter",
                    static_cast<double>(report.profile.l1.accesses) *
                        128.0 / profiled_iters,
                    per_iter.bytes(), 6.0);
            }
        }
        obs::record_drift(m, "gpusim", drift);
    }

    // 5. Sanitized trace replay (opt-in): re-trace the fused kernel for
    // the first blocks of the batch with the SIMT sanitizer attached.
    // BiCGStab is the fused solver the tracer models; other solvers are
    // reported un-sanitized rather than traced with the wrong kernel.
    if (sanitize_ && settings.solver == SolverType::bicgstab &&
        a.num_batch() > 0) {
        report.sanitized = true;
        const bool pipelined =
            settings.pipelined && settings.fused_kernels;
        const auto inputs = trace_inputs(a);
        gpusim::Sanitizer sanitizer;
        const int num_warps =
            (report.block_threads + device_.warp_size - 1) /
            device_.warp_size;
        // The pipelined kernel's widest combine publishes three partials
        // per warp; the classic kernels publish at most two.
        sanitizer.set_shared_limit(gpusim::traced_shared_bytes(
            report.storage, num_warps, pipelined ? 3 : 2));
        const auto blocks = std::min<size_type>(2, a.num_batch());
        for (size_type blk = 0; blk < blocks; ++blk) {
            gpusim::MemoryHierarchy mem(
                static_cast<std::int64_t>(device_.l1_shared_kib_per_cu *
                                          1024),
                static_cast<std::int64_t>(device_.l2_mib * 1024 * 1024));
            gpusim::BlockTracer tracer(report.block_threads,
                                       device_.warp_size, &mem);
            tracer.attach_sanitizer(&sanitizer);
            const auto map = gpusim::AddressMap::for_system(
                blk, shape.rows, inputs.nnz_stored,
                report.storage.num_global);
            sanitizer.clear_buffers();
            gpusim::register_map_buffers(
                sanitizer, map, shape.rows, inputs.nnz_stored,
                inputs.format == gpusim::TracedFormat::csr,
                report.storage.num_global);
            const auto trace = pipelined ? gpusim::trace_pipelined_bicgstab
                                         : gpusim::trace_bicgstab;
            trace(tracer, map, inputs.format, *inputs.row_ptrs,
                  *inputs.csr_cols, *inputs.ell_cols, shape.rows,
                  inputs.nnz_per_row,
                  std::max(1, report.log.iterations(blk)), report.storage);
        }
        report.sanitizer = sanitizer.report();
        if (obs::metrics_enabled()) {
            auto& m = obs::metrics();
            m.add_named("gpusim.sanitized_solves");
            m.add_named("gpusim.sanitizer_violations",
                        report.sanitizer.total_violations);
            m.add_named("gpusim.sanitizer_races", report.sanitizer.races);
            m.add_named("gpusim.sanitizer_barrier_divergences",
                        report.sanitizer.barrier_divergences);
            m.add_named("gpusim.sanitizer_oob_accesses",
                        report.sanitizer.oob_accesses);
        }
    }

    // 6. Transfers (values + pattern + rhs down, solution up).
    if (include_transfers) {
        double h2d = static_cast<double>(values_bytes(a)) +
                     static_cast<double>(pattern_bytes(a)) +
                     static_cast<double>(b.size()) * sizeof(real_type);
        if (settings.use_initial_guess) {
            h2d += static_cast<double>(x.size()) * sizeof(real_type);
        }
        report.h2d_seconds = gpusim::transfer_seconds(device_, h2d);
        report.d2h_seconds = gpusim::transfer_seconds(
            device_, static_cast<double>(x.size()) * sizeof(real_type));
    }
    return report;
}

GpuSolveReport SimGpuExecutor::solve(const BatchCsr<real_type>& a,
                                     const BatchVector<real_type>& b,
                                     BatchVector<real_type>& x,
                                     const SolverSettings& settings,
                                     bool include_transfers) const
{
    return solve_impl(a, b, x, settings, BatchFormat::csr,
                      include_transfers);
}

GpuSolveReport SimGpuExecutor::solve(const BatchEll<real_type>& a,
                                     const BatchVector<real_type>& b,
                                     BatchVector<real_type>& x,
                                     const SolverSettings& settings,
                                     bool include_transfers) const
{
    return solve_impl(a, b, x, settings, BatchFormat::ell,
                      include_transfers);
}

double SimGpuExecutor::spmv_seconds(const gpusim::SystemShape& shape,
                                    BatchFormat format, size_type num_batch,
                                    int reps) const
{
    const index_type block_threads =
        format == BatchFormat::ell
            ? ell_block_size(shape.rows, device_.warp_size)
            : csr_block_size(shape.rows, device_.warp_size);
    // SpMV-only kernel: no shared-memory carve-out, occupancy is
    // thread-limited.
    const auto occ = gpusim::compute_occupancy(device_, block_threads, 0);
    StorageConfig no_shared;  // all operands in global memory
    no_shared.padded_length = shape.rows;
    const auto cost =
        gpusim::block_cost(device_, shape, format, block_threads, no_shared,
                           SolverWorkProfile{}, occ.blocks_per_cu);
    std::vector<double> durations(
        static_cast<std::size_t>(num_batch),
        (cost.spmv_us) * 1e-6);
    const auto schedule = gpusim::schedule_blocks(
        durations, occ.device_slots(device_), device_.scheduling);
    return reps * (device_.launch_overhead_us * 1e-6 +
                   schedule.makespan_seconds);
}

double SimGpuExecutor::direct_qr_seconds(index_type rows, index_type kl,
                                         index_type ku,
                                         size_type num_batch) const
{
    // The batched QR's per-system work is identical across systems; its
    // throughput saturates like the iterative kernels, so the same wave
    // schedule applies with one system per CU slot.
    const double per_system =
        gpusim::direct_qr_system_seconds(device_, rows, kl, ku);
    // cuSolver runs one system per thread block with modest occupancy.
    std::vector<double> durations(static_cast<std::size_t>(num_batch),
                                  per_system * device_.num_cu);
    const auto schedule =
        gpusim::schedule_blocks(durations, device_.num_cu,
                                gpusim::SchedulingPolicy::greedy_dynamic);
    return device_.launch_overhead_us * 1e-6 + schedule.makespan_seconds;
}

CpuSolveReport CpuExecutor::gbsv(const BatchCsr<real_type>& a,
                                 const BatchVector<real_type>& b,
                                 BatchVector<real_type>& x) const
{
    CpuSolveReport report;
    obs::ScopedSpan solve_span("cpu_gbsv", "executor",
                               static_cast<std::int64_t>(a.num_batch()));
    const auto [kl, ku] = bandwidths(a);
    report.per_system_seconds =
        gpusim::cpu_gbsv_system_seconds(cpu_, a.rows(), kl, ku);

    // Functional solve with our dgbsv implementation.
    Timer timer;
    auto banded = to_banded(a, kl, ku);
    for (size_type i = 0; i < a.num_batch(); ++i) {
        blas::copy(b.entry(i), x.entry(i));
    }
    lapack::batch_gbsv(banded, x);
    report.wall_seconds = timer.seconds();

    // Node model: equal-cost systems list-scheduled over cores_used cores.
    const auto waves = (a.num_batch() + cpu_.cores_used - 1) /
                       std::max(1, cpu_.cores_used);
    report.node_seconds =
        static_cast<double>(waves) * report.per_system_seconds;
    return report;
}

CpuSolveReport CpuExecutor::iterative(const BatchCsr<real_type>& a,
                                      const BatchVector<real_type>& b,
                                      BatchVector<real_type>& x,
                                      const SolverSettings& settings) const
{
    CpuSolveReport report;
    if (a.num_batch() == 0) {
        // Nothing to solve or model: skip the solve and the scheduler
        // rather than scheduling zero blocks.
        return report;
    }
    obs::ScopedSpan solve_span("cpu_iterative", "executor",
                               static_cast<std::int64_t>(a.num_batch()));
    Timer timer;
    const auto result = solve_batch(a, b, x, settings);
    report.wall_seconds = timer.seconds();

    // Per-system modeled time: the sparse kernels run memory-bound on a
    // CPU core at ~1/3 of the banded LU's effective flop rate (indexed
    // gathers, short rows, no blocking).
    const double core_rate = cpu_.peak_fp64_gflops_per_core * 1e9 *
                             cpu_.banded_lu_efficiency / 3.0;
    const double n = a.rows();
    const double nnz = a.nnz_per_entry();
    const auto& work = result.work;
    const double flops_per_iter =
        work.spmv_per_iter * 2.0 * nnz +
        (work.precond_per_iter + work.dots_per_iter +
         work.axpys_per_iter) *
            2.0 * n;
    // Batch-lockstep SIMD lanes multiply a core's effective throughput:
    // W lanes retire W systems per sweep, derated by the per-lane
    // efficiency (1 lane = scalar path, multiplier 1).
    const double lane_mult =
        1.0 + (work.simd_lanes - 1) * cpu_.simd_lane_efficiency;
    std::vector<double> durations;
    durations.reserve(static_cast<std::size_t>(a.num_batch()));
    double mean = 0;
    for (size_type i = 0; i < a.num_batch(); ++i) {
        const double flops =
            flops_per_iter * (result.log.iterations(i) + 2.0);
        durations.push_back(flops / (core_rate * lane_mult));
        mean += durations.back();
    }
    report.per_system_seconds =
        a.num_batch() == 0 ? 0.0 : mean / static_cast<double>(a.num_batch());
    const auto schedule = gpusim::schedule_blocks(
        durations, cpu_.cores_used,
        gpusim::SchedulingPolicy::greedy_dynamic);
    report.node_seconds = schedule.makespan_seconds;
    if (obs::metrics_enabled()) {
        auto& m = obs::metrics();
        m.add_named("cpu.iterative_solves");
        m.set_named("cpu.node_seconds", report.node_seconds);
        m.set_named("cpu.per_system_seconds", report.per_system_seconds);
        m.set_named("cpu.simd_lanes",
                    static_cast<double>(result.work.simd_lanes));
    }
    return report;
}

}  // namespace bsis
