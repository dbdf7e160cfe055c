// Lane groups and their drivers: how the host runs BiCGStab and CG.
//
// Each algorithm is written once, as a lane policy (`BicgstabLanes` in
// core/bicgstab.hpp, `CgLanes` in core/cg.hpp), against a lane GROUP: the
// batch entries one thread advances through the same iteration together.
// The policy supplies its vectors, a lane's set-up and the iteration body;
// it runs the BLAS-1 sweeps as blas/kernels.hpp's lane kernels at the
// group's width and asks the group for the sweeps that depend on how an
// entry is stored (SpMV, the reductions fused into it, the preconditioner)
// and for a lane's set-up sweeps.
//
// `EntryLane` is the width-1 group, the scalar path: one batch entry per
// OpenMP thread at a time, the CPU image of the paper's one-thread-block-
// per-system mapping. It works over the entry's own matrix view (any
// format, or solve_monolithic's block-diagonal view), its preconditioner,
// plain workspace slots (a width-1 interleaving is contiguous) and the
// caller's x, each sweep in its phase span. Given the entry on the batch's
// row blocks (matrix/row_blocks.hpp), its SpMV maps the system's rows to
// vector lanes, as the paper's kernel maps them to warp lanes.
// `bicgstab_kernel` and `cg_kernel` are its one-entry runs (`run_entry`).
//
// `LaneGroup<W, Jacobi>` (W in {2, 4, 8, 16}) is the SIMD batch-lockstep
// path, which recovers the lane parallelism the scalar path serializes on
// the OTHER axis: W entries advance together over batch-interleaved
// storage (element i of lane l at data[i*W + l]), so every sweep's inner
// loop is one contiguous width-W vector operation. Where a GPU warp's 32
// lanes sweep the rows of one system, the CPU's SIMD lanes sweep W systems
// at one row (see DESIGN.md). Divergence is masked by COEFFICIENTS, as the
// GPU predicates: a retired lane passes (0, ..., 1) into the fused updates
// so its column is left untouched, and `drain_lanes` refills it from a
// shared atomic counter at the loop top -- persistent thread blocks
// draining a work queue.
//
// Both drivers retire a lane at the loop top by one rule, `retire_at_top`:
// the kernels' exit rule `loop_exit`, then the policy's breakdown check.
//
// The lane code is compiled once per instruction-set copy (util/isa.hpp):
// the slab groups' drivers run at x86-64-v4 where the CPU supports it
// (core/lockstep_run.hpp), the width-1 group at the baseline ISA, calling
// the row-block SpMV's x86-64-v4 kernels when it has row blocks.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "blas/batch_vector.hpp"
#include "blas/kernels.hpp"
#include "core/failure.hpp"
#include "core/logger.hpp"
#include "core/residual.hpp"
#include "core/workspace.hpp"
#include "matrix/ell_slab.hpp"
#include "matrix/row_blocks.hpp"
#include "obs/convergence.hpp"
#include "obs/telemetry.hpp"
#include "util/error.hpp"
#include "util/first_exception.hpp"
#include "util/isa.hpp"
#include "util/types.hpp"

namespace bsis {

/// The state one lockstep solve's lane groups share: the slab pattern, the
/// work queue, the per-thread result staging and the first exception a
/// worker throws. Both instruction-set copies use it; its members are
/// compiled once, at the baseline (core/lockstep_batch.cpp), so the wide
/// copy emits none of its containers' code.
class LockstepBatch {
public:
    /// Builds the slab pattern of `a` and grows `pool` to one workspace
    /// per OpenMP thread: `slots` vectors of `width` lanes, then the slab
    /// strip.
    template <typename SourceBatch>
    LockstepBatch(const SourceBatch& a, WorkspacePool& pool, int width,
                  int slots);
    ~LockstepBatch();

    LockstepBatch(const LockstepBatch&) = delete;
    LockstepBatch& operator=(const LockstepBatch&) = delete;

    /// Stages the outcome of `system` from worker `thread`.
    void record(int thread, size_type system, const EntryResult& e);

    /// Merges the staged outcomes into `log`, then rethrows the first
    /// exception a worker threw. Call after the parallel region.
    void finish(BatchLog& log);

    const EllSlabPattern pattern;
    std::atomic<size_type> next_system{0};
    FirstException failure;

private:
    BatchLogStage stage_;
};

inline namespace BSIS_ISA_NAMESPACE {

namespace lockstep {

inline int this_thread()
{
#ifdef _OPENMP
    return omp_get_thread_num();
#else
    return 0;
#endif
}

inline int max_threads()
{
#ifdef _OPENMP
    return omp_get_max_threads();
#else
    return 1;
#endif
}

/// What every group keeps per lane: its system, progress and residual
/// norms, and the coefficient mask.
template <int W>
struct LaneState {
    static constexpr int width = W;
    obs::ConvergenceHistory* history = nullptr;
    size_type sys[W] = {};
    int iter[W] = {};
    bool active[W] = {};
    real_type act[W] = {};  // 1.0 active, 0.0 retired: the coefficient mask
    real_type b_norm[W] = {};
    real_type r_norm[W] = {};
    real_type r0[W] = {};

    /// Lane l starts its system at set-up residual norm r (iteration 0).
    void start(int l, real_type r)
    {
        r_norm[l] = r;
        r0[l] = r;
        iter[l] = 0;
        active[l] = true;
        act[l] = real_type{1};
        record(l);
    }

    /// Lane l completed an iteration ending at residual norm r_norm[l].
    void advance(int l)
    {
        ++iter[l];
        record(l);
    }

    bool idle() const { return std::count(active, active + W, true) == 0; }

protected:
    void park(int l)
    {
        active[l] = false;
        act[l] = real_type{0};
    }

private:
    void record(int l) const
    {
        if (history != nullptr) {
            history->record(sys[l], iter[l], r_norm[l]);
        }
    }
};

/// The width-1 group: one batch entry's own matrix view and
/// preconditioner, plain workspace slots from `work_offset`, and the
/// caller's x. Every sweep is the scalar kernel's own, in its phase span;
/// the set-up sweeps are the iteration's (the lane is the group). With
/// `blocks`, every SpMV runs on the entry's row blocks, bit for bit the
/// format kernel's product; the set-up SpMV packs the entry first when the
/// pattern needs a copy.
template <typename MatrixView, typename Prec>
struct EntryLane : LaneState<1> {
    EntryLane(const MatrixView& a, ConstVecView<real_type> b,
              VecView<real_type> x, const Prec& prec, Workspace& ws,
              int work_offset, obs::HistorySink sink,
              RowBlockEntry blocks = {})
        : a(a), prec(prec), b(b), x(x.data), n(x.len), ws(ws),
          work_offset(work_offset), blocks(blocks)
    {
        history = sink.history;
        sys[0] = sink.system;
        b_norm[0] = blas::nrm2(b);
    }

    const MatrixView& a;
    const Prec& prec;
    ConstVecView<real_type> b;
    real_type* x;
    index_type n;
    Workspace& ws;
    int work_offset;
    RowBlockEntry blocks;
    EntryResult result;

    real_type* slot(int i) { return ws.slot(work_offset + i).data; }

    /// The run's outcome; x already holds the solution.
    void finish(int, const EntryResult& e)
    {
        result = e;
        park(0);
    }

    /// r = b - A x fused with ||r||: the SpMV, then one update sweep that
    /// also seeds the policy's other vectors through init(i, r_i).
    template <typename Init>
    real_type residual(int, real_type* r, Init&& init) const
    {
        product(x, r, true);
        return obs::traced(obs::Phase::update, [&] {
            const real_type norm = blas::zaxpby_nrm2(
                real_type{1}, b, real_type{-1}, cv(r), vv(r));
            for (index_type i = 0; i < n; ++i) {
                init(static_cast<std::size_t>(i), r[i]);
            }
            return norm;
        });
    }

    /// r = b - A x and ||r||: the shared unfused set-up residual.
    real_type residual(int, real_type* r) const
    {
        product(x, r, true);
        return residual_from_product(b, vv(r));
    }

    real_type dot(int, const real_type* u, const real_type* v) const
    {
        return obs::traced(obs::Phase::reduction,
                           [&] { return blas::dot(cv(u), cv(v)); });
    }

    void precond(int, const real_type* in, real_type* out) const
    {
        precond(in, out);
    }

    real_type precond_dot(int, const real_type* in, real_type* out) const
    {
        real_type d;
        precond_dot(in, out, &d);
        return d;
    }

    void copy(int, const real_type* u, real_type* v) const
    {
        obs::traced(obs::Phase::update, [&] { blas::copy(cv(u), vv(v)); });
    }

    void spmv(const real_type* in, real_type* out) const
    {
        product(in, out, false);
    }

    /// out = A in, then d = w . out in its own reduction sweep.
    void spmv_dot(const real_type* in, const real_type* w, real_type* out,
                  real_type* d) const
    {
        spmv(in, out);
        d[0] = dot(0, w, out);
    }

    /// out = A in, then out.out, out.w, w.v and out.v in one reduction
    /// sweep (blas::dot4).
    void spmv_dot4(const real_type* in, const real_type* w,
                   const real_type* v, real_type* out, real_type* yy,
                   real_type* yw, real_type* wv, real_type* yv) const
    {
        spmv(in, out);
        obs::traced(obs::Phase::reduction, [&] {
            blas::dot4(cv(out), cv(w), cv(v), yy[0], yw[0], wv[0], yv[0]);
        });
    }

    void precond(const real_type* in, real_type* out) const
    {
        obs::traced(obs::Phase::precond, [&] { prec.apply(cv(in), vv(out)); });
    }

    /// out = M^-1 in with d = in . out fused into the same sweep.
    void precond_dot(const real_type* in, real_type* out, real_type* d) const
    {
        obs::traced(obs::Phase::precond,
                    [&] { d[0] = prec.apply_dot(cv(in), vv(out)); });
    }

private:
    ConstVecView<real_type> cv(const real_type* v) const { return {v, n}; }
    VecView<real_type> vv(real_type* v) const { return {v, n}; }

    /// out = A in in an spmv span: on the row blocks when the entry has
    /// them (at `setup`, packing it first), else the format's kernel.
    void product(const real_type* in, real_type* out, bool setup) const
    {
        using bsis::spmv;  // the view's format overload, found by ADL
        obs::traced(obs::Phase::spmv, [&] {
            if (blocks) {
                blocks.spmv(in, out, setup);
            } else {
                spmv(a, cv(in), vv(out));
            }
        });
    }
};

/// Workspace slots every slab group holds after its algorithm's vectors:
/// x, inv_diag and a loading lane's set-up product A x (contiguous); the
/// matrix slab strip takes `nnz_per_row` more.
inline constexpr int group_slots = 3;

/// One thread's group of W lockstep lanes: interleaved x / inv_diag
/// columns, a loading lane's set-up product and the matrix slab in the
/// workspace slots after the policy's vectors. A retiring lane reports to the batch log and writes its
/// solution column back to the caller's entry-major x. A lane's set-up
/// sweeps run over its own column, once per system, each in the span of
/// the phase the width-1 group runs it in.
template <int W, bool Jacobi>
struct LaneGroup : LaneState<W> {
    static constexpr bool jacobi = Jacobi;
    using LaneState<W>::act;

    LaneGroup(Workspace& ws, int vectors, LockstepBatch& batch,
              BatchVector<real_type>& x_out, int thread,
              obs::ConvergenceHistory* history)
        : n(batch.pattern.rows), x(ws.slot(vectors).data),
          inv_diag(ws.slot(vectors + 1).data),
          setup_ax(ws.slot(vectors + 2).data),
          slab(ws.slot(vectors + group_slots).data),
          av{n, batch.pattern.nnz_per_row, batch.pattern.col_idxs.data(),
             slab, W},
          ws(ws), x_out(x_out), batch(batch), thread(thread)
    {
        this->history = history;
    }

    index_type n;
    real_type* x;
    real_type* inv_diag;
    real_type* setup_ax;
    real_type* slab;
    EllSlabView<real_type> av;
    Workspace& ws;
    BatchVector<real_type>& x_out;
    LockstepBatch& batch;
    int thread;
    /// The loading lane's right-hand side, entry-major.
    const real_type* setup_b = nullptr;

    real_type* slot(int i) { return ws.slot(i).data; }

    /// Records lane l's outcome, writes its solution column back (the
    /// column is the working copy) and parks the lane.
    void finish(int l, const EntryResult& e)
    {
        batch.record(thread, this->sys[l], e);
        if (this->history != nullptr) {
            this->history->finalize(this->sys[l], e.iterations,
                                    e.residual_norm, e.converged);
        }
        unpack_lane(ConstLaneGroupView<real_type>(x, n, W), l,
                    x_out.entry(this->sys[l]));
        this->park(l);
    }

    /// Loads `system` into lane l from its entry-major values (in the
    /// source format's order), right-hand side and initial guess (nullptr:
    /// zero): the slab and x columns with the set-up A x in one pass
    /// (load_slab_lane), then Jacobi's inverse diagonal column while the
    /// values are in cache, then ||b||. The policy's set-up runs next.
    void load(int l, size_type system, const real_type* values,
              const real_type* b, const real_type* x0)
    {
        this->sys[l] = system;
        setup_b = b;
        obs::traced(obs::Phase::spmv, [&] {
            if (x0 != nullptr) {
                load_slab_lane<W>(
                    batch.pattern, values,
                    [&](index_type c) { return x0[c]; }, slab, x, setup_ax,
                    l);
            } else {
                load_slab_lane<W>(
                    batch.pattern, values,
                    [](index_type) { return real_type{}; }, slab, x,
                    setup_ax, l);
            }
        });
        if constexpr (Jacobi) {
            obs::traced(obs::Phase::precond,
                        [&] { invert_diagonal(l, values); });
        }
        // ||b||, outside any span like the width-1 group's.
        real_type sum{};
        for (index_type j = 0; j < n; ++j) {
            sum += b[j] * b[j];
        }
        this->b_norm[l] = std::sqrt(sum);
    }

    /// f(idx) for each element of lane l's column, in ascending order.
    template <typename F>
    void each(int l, F&& f) const
    {
        for (index_type j = 0; j < n; ++j) {
            f(static_cast<std::size_t>(j) * W + l);
        }
    }

    /// The loaded lane's set-up residual r(:, l) = b - A x, fused with
    /// ||r(:, l)||; init(idx, r_idx) seeds the policy's other vectors in
    /// the same sweep. A x is the product `load` left.
    template <typename Init>
    real_type residual(int l, real_type* r, Init&& init) const
    {
        return obs::traced(obs::Phase::update, [&] {
            real_type sum{};
            b_minus_ax(l, r, [&](std::size_t i) {
                sum += r[i] * r[i];
                init(i, r[i]);
            });
            return std::sqrt(sum);
        });
    }

    /// The loaded lane's r(:, l) = b - A x, then ||r(:, l)|| in a
    /// reduction sweep: the width-1 group's unfused set-up residual.
    real_type residual(int l, real_type* r) const
    {
        obs::traced(obs::Phase::update,
                    [&] { b_minus_ax(l, r, [](std::size_t) {}); });
        return std::sqrt(dot(l, r, r));
    }

    /// u(:, l) . v(:, l) in ascending element order (the order of the
    /// scalar blas::dot; its sqrt of u . u is the scalar blas::nrm2).
    real_type dot(int l, const real_type* u, const real_type* v) const
    {
        return obs::traced(obs::Phase::reduction,
                           [&] { return column_dot(l, u, v); });
    }

    void precond(int l, const real_type* in, real_type* out) const
    {
        obs::traced(obs::Phase::precond, [&] {
            each(l, [&](std::size_t i) { apply(i, in, out); });
        });
    }

    /// out(:, l) = M^-1 in(:, l) with d = in . out in the same sweep.
    real_type precond_dot(int l, const real_type* in, real_type* out) const
    {
        return obs::traced(obs::Phase::precond, [&] {
            real_type sum{};
            each(l, [&](std::size_t i) {
                apply(i, in, out);
                sum += in[i] * out[i];
            });
            return sum;
        });
    }

    void copy(int l, const real_type* u, real_type* v) const
    {
        obs::traced(obs::Phase::update,
                    [&] { each(l, [&](std::size_t i) { v[i] = u[i]; }); });
    }

    /// out = A in for every lane; a retired lane's column receives garbage
    /// that never escapes it (refill rewrites it).
    void spmv(const real_type* in, real_type* out) const
    {
        obs::traced(obs::Phase::spmv, [&] { spmv_lanes<W>(av, in, out); });
    }

    /// out = A in with d = w . out fused into the producing sweep.
    void spmv_dot(const real_type* in, const real_type* w, real_type* out,
                  real_type* d) const
    {
        obs::traced(obs::Phase::spmv,
                    [&] { spmv_lanes_dot<W>(av, in, w, out, d); });
    }

    /// out = A in with out.out, out.w, w.v and out.v fused into the
    /// producing sweep.
    void spmv_dot4(const real_type* in, const real_type* w,
                   const real_type* v, real_type* out, real_type* yy,
                   real_type* yw, real_type* wv, real_type* yv) const
    {
        obs::traced(obs::Phase::spmv, [&] {
            spmv_lanes_dot4<W>(av, in, w, v, out, yy, yw, wv, yv);
        });
    }

    /// out = M^-1 in over the group, mask-selected so retired columns keep
    /// their values rather than being recomputed from stale operands.
    void precond(const real_type* in, real_type* out) const
    {
        obs::traced(obs::Phase::precond, [&] {
            if constexpr (Jacobi) {
                blas::mul_elementwise_lanes<W>(inv_diag, in, act, out, n);
            } else {
                blas::copy_lanes<W>(in, act, out, n);
            }
        });
    }

    /// out = M^-1 in, then d = in . out in a reduction sweep.
    void precond_dot(const real_type* in, real_type* out, real_type* d) const
    {
        precond(in, out);
        obs::traced(obs::Phase::reduction,
                    [&] { blas::dot_lanes<W>(in, out, n, d); });
    }

private:
    /// r(:, l) = b - A x from the loaded lane's entry-major b and set-up
    /// product, then f(idx) for each element in ascending order.
    template <typename F>
    void b_minus_ax(int l, real_type* r, F&& f) const
    {
        for (index_type j = 0; j < n; ++j) {
            const std::size_t i = static_cast<std::size_t>(j) * W + l;
            r[i] = setup_b[j] - setup_ax[j];
            f(i);
        }
    }

    /// inv_diag(:, l) = 1 / diag(A) of the entry with `values`: each row's
    /// diagonal slots (the pattern's diagonal-slot list) summed in slot
    /// order from zero, the `diagonal_at` rule of the scalar JacobiPrec,
    /// with its zero-diagonal breakdown (a row without a diagonal slot
    /// sums to zero).
    void invert_diagonal(int l, const real_type* values) const
    {
        const index_type* ptrs = batch.pattern.diag_ptrs.data();
        const index_type* pos = batch.pattern.diag_pos.data();
        for (index_type r = 0; r < n; ++r) {
            real_type d{};
            for (index_type q = ptrs[r]; q < ptrs[r + 1]; ++q) {
                d += values[pos[q]];
            }
            if (d == real_type{0}) {
                throw_breakdown("JacobiPrec", "zero diagonal entry");
            }
            inv_diag[static_cast<std::size_t>(r) * W + l] = real_type{1} / d;
        }
    }

    real_type column_dot(int l, const real_type* u, const real_type* v) const
    {
        real_type sum{};
        each(l, [&](std::size_t i) { sum += u[i] * v[i]; });
        return sum;
    }

    void apply(std::size_t i, const real_type* in, real_type* out) const
    {
        out[i] = Jacobi ? inv_diag[i] * in[i] : in[i];
    }
};

/// The loop-top rule of both drivers: lane l retires as `loop_exit` says,
/// else on the policy's breakdown check, so a system classifies the same
/// at any width. Returns whether the lane retired.
template <typename Group, typename Lanes, typename Stop>
bool retire_at_top(Group& g, const Lanes& lanes, const Stop& stop,
                   int max_iters, int l)
{
    auto exit = loop_exit(stop, g.iter[l], max_iters, g.r_norm[l],
                          g.b_norm[l], g.r0[l]);
    if (!exit) {
        if (const auto fc = lanes.breakdown(l)) {
            exit = EntryResult{g.iter[l], g.r_norm[l], false, *fc};
        }
    }
    if (exit) {
        g.finish(l, *exit);
    }
    return exit.has_value();
}

/// Solves the one entry of a width-1 group: its set-up, then iterations
/// until the loop-top rule or the iteration body retires the lane.
template <typename Lanes, typename Stop>
EntryResult run_entry(typename Lanes::group& g, const Stop& stop,
                      int max_iters)
{
    Lanes lanes(g);
    g.start(0, lanes.setup(g, 0));
    while (g.active[0] && !retire_at_top(g, lanes, stop, max_iters, 0)) {
        lanes.iterate(g, stop);
    }
    return g.result;
}

}  // namespace lockstep

/// Runs one thread's slab group to queue exhaustion: its lanes advance
/// through `Lanes::iterate` together, and a retired lane is refilled from
/// the batch's work queue at the top of the loop.
template <typename Lanes, typename SourceBatch, typename Stop>
void drain_lanes(const SourceBatch& a, LockstepBatch& batch,
                 const BatchVector<real_type>& b, BatchVector<real_type>& x,
                 bool zero_guess, const Stop& stop, int max_iters,
                 Workspace& ws, int thread, obs::ConvergenceHistory* history)
{
    using Group = typename Lanes::group;
    constexpr int W = Group::width;
    const size_type nbatch = a.num_batch();
    // Slot layout: the algorithm's vectors, then x, inv_diag, the set-up
    // product and the slab strip. Workspace slots are contiguous in one
    // allocation, so the strip is one flat array.
    Group g(ws, Lanes::vectors, batch, x, thread, history);
    Lanes lanes(g);

    // Load the next unsolved system into lane l and run the algorithm's
    // set-up on it.
    auto refill = [&](int l) -> bool {
        const size_type i = batch.next_system.fetch_add(1);
        if (i >= nbatch) {
            return false;
        }
        obs::ScopedSpan span("lane_refill", "solver",
                             static_cast<std::int64_t>(i));
        g.load(l, i, a.entry(i).values, b.entry(i).data,
               zero_guess ? nullptr : x.entry(i).data);
        g.start(l, lanes.setup(g, l));
        return true;
    };

    while (true) {
        // Top of the lockstep iteration: retire lanes by the loop-top rule
        // and refill them until each lane either has work or the queue is
        // dry. A freshly refilled system may retire at once (a zero
        // right-hand side with a zero guess), so the checks loop.
        for (int l = 0; l < W; ++l) {
            while (g.active[l] || refill(l)) {
                if (!lockstep::retire_at_top(g, lanes, stop, max_iters, l)) {
                    break;
                }
            }
        }
        if (g.idle()) {
            break;
        }
        lanes.iterate(g, stop);
    }
}

/// Batch driver for the lockstep path: sets up the batch's shared state
/// (slab pattern, rows*W-length workspaces, work queue) and drains one
/// lane group per OpenMP thread against the shared work queue. Per-entry
/// results are staged per thread and merged into the log afterwards; each
/// thread's phase-tally growth is added to `phases`.
template <typename Lanes, typename SourceBatch, typename Stop>
void run_batch_lockstep(const SourceBatch& a, const BatchVector<real_type>& b,
                        BatchVector<real_type>& x, bool zero_guess,
                        const Stop& stop, int max_iters, WorkspacePool& pool,
                        BatchLog& log, obs::ConvergenceHistory* history,
                        obs::PhaseTally& phases)
{
    constexpr int W = Lanes::group::width;
    LockstepBatch batch(a, pool, W, Lanes::vectors + lockstep::group_slots);
#pragma omp parallel
    {
        // The thread's tally growth over its drain is its part of this
        // solve's phase totals.
        const obs::PhaseTally tally_before = obs::thread_phase_tally();
        batch.failure.run([&] {
            const int thread = lockstep::this_thread();
            // One span per thread covering its whole queue drain: the
            // lane-group analogue of the scalar path's per-entry span.
            obs::ScopedSpan group_span("lockstep_group", "solver", W);
            drain_lanes<Lanes>(a, batch, b, x, zero_guess, stop, max_iters,
                               pool.at(thread), thread, history);
        });
#pragma omp critical(bsis_phase_fold)
        phases.add_delta(obs::thread_phase_tally(), tally_before);
    }
    batch.finish(log);
}

}  // inline namespace BSIS_ISA_NAMESPACE
}  // namespace bsis
