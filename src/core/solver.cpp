#include "core/solver.hpp"

#include <algorithm>

#include "core/bicg.hpp"
#include "core/bicgstab.hpp"
#include "core/chebyshev.hpp"
#include "core/cg.hpp"
#include "core/cgs.hpp"
#include "core/forensics.hpp"
#include "core/gmres.hpp"
#include "core/lockstep.hpp"
#include "core/lockstep_run.hpp"
#include "core/richardson.hpp"
#include "core/workspace.hpp"
#include "matrix/row_blocks.hpp"
#include "obs/attribution.hpp"
#include "obs/events.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "util/error.hpp"
#include "util/first_exception.hpp"
#include "util/timer.hpp"

namespace bsis {

namespace {

/// Number of workspace slots a composition needs (solver scratch +
/// preconditioner storage).
int workspace_slots(const SolverSettings& s)
{
    const int prec = precond_work_vectors(s.precond, s.block_jacobi_size);
    switch (s.solver) {
    case SolverType::bicgstab:
        return bicgstab_work_vectors + prec;
    case SolverType::bicg:
        return bicg_work_vectors + prec;
    case SolverType::cgs:
        return cgs_work_vectors + prec;
    case SolverType::cg:
        return cg_work_vectors + prec;
    case SolverType::gmres:
        return gmres_work_vectors(s.gmres_restart) + prec;
    case SolverType::richardson:
        return richardson_work_vectors + prec;
    case SolverType::chebyshev:
        // +3 scratch slots for the Gershgorin bound computation.
        return chebyshev_work_vectors + 3 + prec;
    }
    return 0;
}

/// Per-calling-thread solver scratch, persistent across solve_batch calls
/// so repeated solves (Picard loops, bench repetitions) stop reallocating.
/// thread_local (rather than a global pool) keeps concurrent solve_batch
/// calls from different host threads isolated; the OpenMP threads of each
/// call's parallel region index into their caller's pool.
struct SolveScratch {
    WorkspacePool workspaces;
    /// Separate pool for the lockstep path: its slots are rows * W long,
    /// and growing the scalar pool's slot length would trip the scalar
    /// kernels' slot-length asserts.
    WorkspacePool lockstep_workspaces;
    std::vector<GmresScratch> gmres;
};

SolveScratch& solve_scratch()
{
    thread_local SolveScratch scratch;
    return scratch;
}

/// Formats the lockstep path can ELL-ize into the interleaved slab
/// (shared-pattern sparse formats; BatchDense has no shared pattern).
template <typename BatchMatrix>
inline constexpr bool lockstep_supported_format =
    std::is_same_v<BatchMatrix, BatchCsr<real_type>> ||
    std::is_same_v<BatchMatrix, BatchEll<real_type>> ||
    std::is_same_v<BatchMatrix, BatchSellp<real_type>>;

/// Rounds a requested lockstep width down to a supported power of two
/// (the instantiated kernel widths); < 2 selects the scalar path.
int effective_lockstep_width(int requested)
{
    for (const int w : {16, 8, 4, 2}) {
        if (requested >= w) {
            return w;
        }
    }
    return 0;
}

/// The plan a solve runs: the lockstep width (0 selects the scalar path),
/// whether BiCGStab / CG run the pipelined recurrences, and the
/// instruction-set level of the kernels that have a wide copy (the
/// lockstep lane drivers, or the width-1 path's row-block SpMV). Pricing,
/// dispatch and the solve.start event all read this one decision.
struct ExecutionPlan {
    int lockstep_width = 0;
    bool pipelined = false;
    IsaLevel isa = IsaLevel::x86_64;
};

template <typename BatchMatrix>
ExecutionPlan plan_solve(const SolverSettings& s)
{
    ExecutionPlan plan;
    // The pipelined variants ARE fused kernels; without fused kernels the
    // flag is ignored.
    plan.pipelined = s.pipelined && s.fused_kernels;
    // Fused BiCGStab / CG on the shared-pattern formats have a wide copy:
    // the lane drivers, or with any preconditioner on the scalar path the
    // row-block SpMV. Lane kernels exist for identity or scalar Jacobi;
    // anything else runs scalar.
    if (lockstep_supported_format<BatchMatrix> &&
        (s.solver == SolverType::bicgstab || s.solver == SolverType::cg) &&
        s.fused_kernels) {
        plan.isa = lockstep_isa();
        if (s.precond != PrecondType::block_jacobi) {
            plan.lockstep_width = effective_lockstep_width(s.lockstep_width);
        }
    }
    return plan;
}

/// Runs the batch on the SIMD lockstep path with the copy of the lane
/// drivers the plan chose.
template <typename BatchMatrix, typename Stop>
void dispatch_lockstep(const BatchMatrix& a, const BatchVector<real_type>& b,
                       BatchVector<real_type>& x,
                       const SolverSettings& settings,
                       const ExecutionPlan& plan, const Stop& stop,
                       BatchLog& log, obs::ConvergenceHistory* history,
                       obs::PhaseTally& phases)
{
    const int w = plan.lockstep_width;
    auto& pool = solve_scratch().lockstep_workspaces;
#ifdef BSIS_WIDE_LANES
    if (plan.isa == IsaLevel::x86_64_v4) {
        isa_v4::run_lockstep(a, b, x, settings, w, stop, pool, log, history,
                             phases);
        return;
    }
#endif
    isa_base::run_lockstep(a, b, x, settings, w, stop, pool, log, history,
                           phases);
}

/// Runs the fully composed kernel over the batch. Prec and Stop are
/// compile-time parameters here, exactly as in the paper's fused kernel.
template <typename BatchMatrix, typename Prec, typename Stop>
void run_batch(const BatchMatrix& a, const BatchVector<real_type>& b,
               BatchVector<real_type>& x, const SolverSettings& settings,
               const ExecutionPlan& plan, const Stop& stop, BatchLog& log,
               obs::ConvergenceHistory* history, obs::PhaseTally& phases)
{
    if constexpr (lockstep_supported_format<BatchMatrix> &&
                  !std::is_same_v<Prec, BlockJacobiPrec>) {
        if (plan.lockstep_width > 0) {
            dispatch_lockstep(a, b, x, settings, plan, stop, log, history,
                              phases);
            return;
        }
    }
    const size_type nbatch = a.num_batch();
    const index_type n = x.len();
    const int solver_slots = workspace_slots(settings);
    const int nthreads = lockstep::max_threads();

    // A wide scalar plan runs BiCGStab's and CG's SpMV on row blocks: one
    // pattern per call, and per thread a strip after the solver's slots
    // for an entry's packed values.
    RowBlockPattern blocks;
    int strip_slots = 0;
    if constexpr (lockstep_supported_format<BatchMatrix>) {
        if (plan.isa == IsaLevel::x86_64_v4) {
            blocks = make_row_block_pattern(a);
            if (n > 0) {
                strip_slots = (blocks.strip_length() + n - 1) / n;
            }
        }
    }
    // The row-block view of entry i on `ws`, or none (the format kernel).
    const auto entry_blocks = [&](size_type i, Workspace& ws) {
        RowBlockEntry e;
        if constexpr (lockstep_supported_format<BatchMatrix>) {
            if (plan.isa == IsaLevel::x86_64_v4) {
                e = {&blocks, a.entry(i).values,
                     blocks.packed()
                         ? row_block_strip(ws.slot(solver_slots).data)
                         : nullptr};
            }
        }
        (void)i;
        (void)ws;
        return e;
    };

    auto& scratch = solve_scratch();
    scratch.workspaces.require(nthreads, n, solver_slots + strip_slots);
    if (static_cast<int>(scratch.gmres.size()) < nthreads) {
        scratch.gmres.resize(static_cast<std::size_t>(nthreads));
    }
    auto& workspaces = scratch.workspaces;
    auto& gmres_scratch = scratch.gmres;

    // Per-thread result staging (merged below): recording directly into
    // the shared log from inside the loop makes adjacent entries' writes
    // false-share cache lines across threads. Chunked dynamic scheduling
    // (below) amortizes the per-entry scheduler handshake over 8 entries
    // while keeping the load balancing that varying iteration counts need.
    BatchLogStage stage(nthreads);
    // Solves batch entry i on the calling OpenMP thread.
    const auto solve_entry = [&](size_type i) {
        obs::ScopedSpan entry_span("solve_entry", "solver",
                                   static_cast<std::int64_t>(i));
        const int thread = lockstep::this_thread();
        auto& ws = workspaces.at(thread);
        const auto av = a.entry(i);
        const auto bv = b.entry(i);
        auto xv = x.entry(i);
        if (!settings.use_initial_guess) {
            blas::fill(xv, real_type{0});
        }
        // Preconditioner storage lives in the tail slots of the
        // workspace (contiguous, so a multi-slot strip is one view).
        const int prec_vecs = precond_work_vectors(
            settings.precond, settings.block_jacobi_size);
        const int prec_slot_base = solver_slots - prec_vecs;
        Prec prec = [&] {
            if constexpr (std::is_same_v<Prec, BlockJacobiPrec>) {
                return BlockJacobiPrec(settings.block_jacobi_size);
            } else {
                return Prec{};
            }
        }();
        {
            obs::ScopedSpan setup_span("precond_setup", "solver");
            obs::PhaseTimer setup_timer(obs::Phase::precond);
            if constexpr (std::is_same_v<Prec, JacobiPrec>) {
                prec.generate(av, ws.slot(prec_slot_base));
            } else if constexpr (std::is_same_v<Prec, BlockJacobiPrec>) {
                prec.generate(av, VecView<real_type>{
                                      ws.slot(prec_slot_base).data,
                                      ws.length() * prec_vecs});
            } else {
                (void)prec_slot_base;
                prec.generate(av, VecView<real_type>{});
            }
        }

        const obs::HistorySink traj{history, i};

        EntryResult result;
        switch (settings.solver) {
        case SolverType::bicgstab:
            result = !settings.fused_kernels
                         ? bicgstab_kernel_unfused(av, bv, xv, prec, stop,
                                                   settings.max_iterations,
                                                   ws, 0, traj)
                     : plan.pipelined
                         ? bicgstab_kernel<true>(av, bv, xv, prec, stop,
                                                 settings.max_iterations,
                                                 ws, 0, traj,
                                                 entry_blocks(i, ws))
                         : bicgstab_kernel(av, bv, xv, prec, stop,
                                           settings.max_iterations, ws, 0,
                                           traj, entry_blocks(i, ws));
            break;
        case SolverType::bicg:
            result = bicg_kernel(av, bv, xv, prec, stop,
                                 settings.max_iterations, ws, 0, traj);
            break;
        case SolverType::cgs:
            result = cgs_kernel(av, bv, xv, prec, stop,
                                settings.max_iterations, ws, 0, traj);
            break;
        case SolverType::cg:
            result = plan.pipelined
                         ? cg_kernel<true>(av, bv, xv, prec, stop,
                                           settings.max_iterations, ws, 0,
                                           traj, entry_blocks(i, ws))
                         : cg_kernel(av, bv, xv, prec, stop,
                                     settings.max_iterations, ws, 0, traj,
                                     entry_blocks(i, ws));
            break;
        case SolverType::gmres:
            result = gmres_kernel(
                av, bv, xv, prec, stop, settings.max_iterations,
                settings.gmres_restart, ws,
                gmres_scratch[static_cast<std::size_t>(thread)], 0,
                traj);
            break;
        case SolverType::richardson:
            result = richardson_kernel(av, bv, xv, prec, stop,
                                       settings.max_iterations, ws,
                                       settings.richardson_omega, 0,
                                       traj);
            break;
        case SolverType::chebyshev: {
            const auto bounds = gershgorin_bounds(
                av, ws, chebyshev_work_vectors,
                settings.precond != PrecondType::identity);
            result = chebyshev_kernel(av, bv, xv, prec, stop,
                                      settings.max_iterations, bounds,
                                      ws, 0, traj);
            break;
        }
        }
        stage.record(thread, i, result.iterations,
                     result.residual_norm, result.converged,
                     result.failure);
        if (history != nullptr) {
            history->finalize(i, result.iterations, result.residual_norm,
                              result.converged);
        }
    };

    FirstException failure;
#pragma omp parallel
    {
        // This thread's tally grows only by its own spans; its growth
        // over the thread's share of the loop is its part of this
        // solve's phase totals.
        const obs::PhaseTally tally_before = obs::thread_phase_tally();
#pragma omp for schedule(dynamic, 8) nowait
        for (size_type i = 0; i < nbatch; ++i) {
            failure.run([&] { solve_entry(i); });
        }
#pragma omp critical(bsis_phase_fold)
        phases.add_delta(obs::thread_phase_tally(), tally_before);
    }
    stage.merge_into(log);
    failure.rethrow();
}

template <typename BatchMatrix, typename Prec>
void dispatch_stop(const BatchMatrix& a, const BatchVector<real_type>& b,
                   BatchVector<real_type>& x, const SolverSettings& settings,
                   const ExecutionPlan& plan, BatchLog& log,
                   obs::ConvergenceHistory* history, obs::PhaseTally& phases)
{
    switch (settings.stop) {
    case StopType::abs_residual:
        run_batch<BatchMatrix, Prec>(a, b, x, settings, plan,
                                     AbsResidualStop{settings.tolerance},
                                     log, history, phases);
        break;
    case StopType::rel_residual:
        run_batch<BatchMatrix, Prec>(a, b, x, settings, plan,
                                     RelResidualStop{settings.tolerance},
                                     log, history, phases);
        break;
    }
}

/// Ledger view of a batch matrix's storage (shape + format), feeding the
/// attribution byte/flop accounting.
template <typename BatchMatrix>
obs::LedgerShape ledger_shape(const BatchMatrix& a)
{
    obs::LedgerShape shape;
    shape.rows = a.rows();
    if constexpr (std::is_same_v<BatchMatrix, BatchCsr<real_type>>) {
        shape.stored_nnz = a.nnz_per_entry();
        shape.nnz_per_row = a.max_nnz_per_row();
    } else if constexpr (std::is_same_v<BatchMatrix, BatchEll<real_type>>) {
        shape.stored_nnz = a.stored_per_entry();
        shape.nnz_per_row = a.nnz_per_row();
    } else if constexpr (std::is_same_v<BatchMatrix,
                                        BatchSellp<real_type>>) {
        shape.stored_nnz = a.stored_per_entry();
        shape.nnz_per_row =
            a.rows() > 0 ? a.stored_per_entry() / a.rows() : 0;
    } else {
        shape.stored_nnz = a.rows() * a.rows();
        shape.nnz_per_row = a.rows();
    }
    return shape;
}

template <typename BatchMatrix>
constexpr obs::LedgerFormat ledger_format()
{
    if constexpr (std::is_same_v<BatchMatrix, BatchCsr<real_type>>) {
        return obs::LedgerFormat::csr;
    } else if constexpr (std::is_same_v<BatchMatrix, BatchEll<real_type>>) {
        return obs::LedgerFormat::ell;
    } else if constexpr (std::is_same_v<BatchMatrix,
                                        BatchSellp<real_type>>) {
        return obs::LedgerFormat::sellp;
    } else {
        return obs::LedgerFormat::dense;
    }
}

/// Joins the measured phase totals of this solve with the work ledger:
/// per-phase achieved-GB/s / GF/s / roofline gauges, the drift check
/// against the host roofline model, and the continuous-profiler window.
void record_phase_metrics(obs::MetricsRegistry& m,
                          const obs::WorkLedger& ledger,
                          const obs::PhaseTotals& phases)
{
    const auto peaks = obs::host_roofline();
    const auto attribution = obs::attribute_phases(ledger, phases, peaks);
    obs::record_phase_attribution(m, "solve", attribution);
    m.set_named("solve.roofline.peak_gbps", peaks.gbps);
    m.set_named("solve.roofline.peak_gflops", peaks.gflops);

    // Drift: measured thread-CPU seconds per phase vs the roofline floor
    // the ledger implies (only the SHARES are compared, so the model's
    // absolute bandwidth assumption cancels out). CPU rather than wall
    // time: a scheduler preemption landing inside one span rewrites the
    // wall-share mix of a millisecond-scale solve, while the CPU shares
    // stay put -- bandwidth attribution above keeps wall time, drift
    // keeps its meaning on a loaded machine. Phase::other has no model
    // and stays zero on both sides.
    double measured[obs::phase_count] = {};
    double modeled[obs::phase_count] = {};
    for (int p = 0; p < obs::phase_count; ++p) {
        if (p == static_cast<int>(obs::Phase::other)) {
            continue;
        }
        measured[p] = phases.cpu_seconds[p];
        const auto& w = ledger.phase[p];
        const double mem_s =
            peaks.gbps > 0 ? w.bytes() / (peaks.gbps * 1e9) : 0.0;
        const double flop_s =
            peaks.gflops > 0 ? w.flops / (peaks.gflops * 1e9) : 0.0;
        modeled[p] = std::max(mem_s, flop_s);
    }
    const auto drift = obs::detect_drift(measured, modeled);
    obs::record_drift(m, "solve", drift);

    obs::ProfileWindow::Sample sample;
    for (const auto& a : attribution) {
        const int p = static_cast<int>(a.phase);
        sample.seconds[p] = a.seconds;
        sample.gbps[p] = a.gbps;
    }
    obs::profile_window().push(sample);
    obs::profile_window().export_gauges(m);
}

/// Post-solve metrics recording (cold path; called once per batch).
void record_solve_metrics(const BatchSolveResult& result,
                          const obs::WorkLedger& ledger)
{
    auto& m = obs::metrics();
    m.add_named("solve.batches");
    m.add_named("solve.systems", result.log.num_batch());
    m.add_named("solve.iterations", result.log.total_iterations());
    std::int64_t unconverged = 0;
    const auto iters_id = m.histogram("solve.system_iterations");
    for (size_type i = 0; i < result.log.num_batch(); ++i) {
        m.observe(iters_id, static_cast<double>(result.log.iterations(i)));
        unconverged += result.log.converged(i) ? 0 : 1;
    }
    m.add_named("solve.unconverged", unconverged);
    record_failure_counts(m, "solve", result.log.failure_counts());
    m.observe_named("solve.wall_seconds", result.wall_seconds);
    m.set_named("solve.last_wall_seconds", result.wall_seconds);
    m.set_named("solve.simd_lanes",
                static_cast<double>(result.work.simd_lanes));
    record_phase_metrics(m, ledger, result.phases);
    obs::sync_trace_dropped_gauge();
}

/// Dumps every non-converged system of the finished solve to the armed
/// recorder. Cold path: runs once per batch, after the parallel region.
/// `x0` is the initial guess the solve actually used (zeros unless the
/// caller warm-started).
template <typename BatchMatrix>
void capture_failures(const BatchMatrix& a, const BatchVector<real_type>& b,
                      const BatchVector<real_type>& x0,
                      const SolverSettings& settings,
                      const BatchSolveResult& result)
{
    auto* recorder = settings.flight_recorder;
    for (size_type i = 0; i < result.log.num_batch(); ++i) {
        if (result.log.converged(i)) {
            continue;
        }
        const auto meta = make_bundle_meta(
            settings, i, result.log,
            result.history.active() ? &result.history : nullptr);
        recorder->capture(to_coo(a.entry(i)), b.entry(i), x0.entry(i),
                          meta);
    }
}

}  // namespace

const char* isa_name(IsaLevel level)
{
    return level == IsaLevel::x86_64_v4 ? "x86-64-v4" : "x86-64";
}

IsaLevel lockstep_isa()
{
    static const IsaLevel level = [] {
#ifdef BSIS_WIDE_LANES
        __builtin_cpu_init();
        if (__builtin_cpu_supports("x86-64-v4")) {
            return IsaLevel::x86_64_v4;
        }
#endif
        return IsaLevel::x86_64;
    }();
    return level;
}

template <typename BatchMatrix>
BatchSolveResult solve_batch(const BatchMatrix& a,
                             const BatchVector<real_type>& b,
                             BatchVector<real_type>& x,
                             const SolverSettings& settings)
{
    BSIS_ENSURE_DIMS(a.num_batch() == b.num_batch() &&
                         a.num_batch() == x.num_batch(),
                     "matrix/rhs/solution batch counts must match");
    BSIS_ENSURE_DIMS(a.rows() == b.len() && a.rows() == x.len(),
                     "matrix order and vector lengths must match");
    BSIS_ENSURE_ARG(settings.max_iterations >= 0,
                    "negative iteration limit");
    BSIS_ENSURE_ARG(settings.tolerance >= 0, "negative tolerance");

    const ExecutionPlan plan = plan_solve<BatchMatrix>(settings);
    if (obs::events_enabled()) {
        obs::events().emit(
            "solve.start",
            {obs::field("systems",
                        static_cast<std::int64_t>(a.num_batch())),
             obs::field("rows", static_cast<std::int64_t>(a.rows())),
             obs::field("solver", solver_name(settings.solver)),
             obs::field("precond", precond_name(settings.precond)),
             obs::field("lockstep_width", plan.lockstep_width),
             obs::field("pipelined", plan.pipelined),
             obs::field("isa", isa_name(plan.isa))});
    }

    BatchSolveResult result;
    result.log = BatchLog(a.num_batch());
    result.work = work_profile(settings.solver, settings.gmres_restart,
                               settings.fused_kernels, plan.pipelined);
    result.work.simd_lanes = std::max(plan.lockstep_width, 1);
    // The flight recorder wants the failing systems' residual
    // trajectories in the bundle sidecar, so an armed recorder forces the
    // history on even when the caller did not ask for it.
    const bool want_history =
        settings.record_convergence || settings.flight_recorder != nullptr;
    if (want_history) {
        result.history.reset(a.num_batch(), settings.convergence_capacity);
    }
    obs::ConvergenceHistory* history = want_history ? &result.history
                                                    : nullptr;
    // Snapshot the initial guess before the solve overwrites x: the bundle
    // must reproduce the exact starting state. Zeros unless warm-started
    // (run_batch zeroes x per entry in that case).
    BatchVector<real_type> x0_snapshot;
    if (settings.flight_recorder != nullptr) {
        x0_snapshot = settings.use_initial_guess
                          ? x
                          : BatchVector<real_type>(a.num_batch(), x.len());
    }
    obs::ScopedSpan batch_span("solve_batch", "solver",
                               static_cast<std::int64_t>(a.num_batch()));
    // Metrics switched on mid-solve would attribute a partial tally.
    const bool attribute = obs::metrics_enabled();
    obs::PhaseTally phases;
    Timer timer;
    switch (settings.precond) {
    case PrecondType::identity:
        dispatch_stop<BatchMatrix, IdentityPrec>(a, b, x, settings, plan,
                                                 result.log, history, phases);
        break;
    case PrecondType::jacobi:
        dispatch_stop<BatchMatrix, JacobiPrec>(a, b, x, settings, plan,
                                               result.log, history, phases);
        break;
    case PrecondType::block_jacobi:
        dispatch_stop<BatchMatrix, BlockJacobiPrec>(
            a, b, x, settings, plan, result.log, history, phases);
        break;
    }
    result.wall_seconds = timer.seconds();
    result.phases = phases.totals();
    if (attribute && obs::metrics_enabled()) {
        const auto ledger = obs::work_ledger(
            plan.lockstep_width > 0
                ? slab_work_profile(result.work, settings.solver,
                                    plan.pipelined)
                : result.work,
            ledger_shape(a), ledger_format<BatchMatrix>(),
            static_cast<double>(result.log.total_iterations()),
            static_cast<double>(a.num_batch()));
        record_solve_metrics(result, ledger);
    }
    if (settings.flight_recorder != nullptr) {
        capture_failures(a, b, x0_snapshot, settings, result);
    }
    if (obs::events_enabled()) {
        std::int64_t unconverged = 0;
        for (size_type i = 0; i < result.log.num_batch(); ++i) {
            unconverged += result.log.converged(i) ? 0 : 1;
        }
        obs::events().emit(
            "solve.end",
            {obs::field("systems",
                        static_cast<std::int64_t>(a.num_batch())),
             obs::field("wall_seconds", result.wall_seconds),
             obs::field("iterations", result.log.total_iterations()),
             obs::field("unconverged", unconverged)});
    }
    return result;
}

template BatchSolveResult solve_batch<BatchCsr<real_type>>(
    const BatchCsr<real_type>&, const BatchVector<real_type>&,
    BatchVector<real_type>&, const SolverSettings&);
template BatchSolveResult solve_batch<BatchEll<real_type>>(
    const BatchEll<real_type>&, const BatchVector<real_type>&,
    BatchVector<real_type>&, const SolverSettings&);
template BatchSolveResult solve_batch<BatchSellp<real_type>>(
    const BatchSellp<real_type>&, const BatchVector<real_type>&,
    BatchVector<real_type>&, const SolverSettings&);
template BatchSolveResult solve_batch<BatchDense<real_type>>(
    const BatchDense<real_type>&, const BatchVector<real_type>&,
    BatchVector<real_type>&, const SolverSettings&);

}  // namespace bsis
