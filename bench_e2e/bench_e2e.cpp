// End-to-end collision-step benchmark: one workload per process.
//
//   bench_e2e --workload <name> [--seed N] [--seconds S] [--traced]
//             [--trace-out FILE]
//
// Load model: closed loop. A single caller issues back-to-back batch calls,
// as XGC's timestep loop does. An untimed warm-up call comes first. The
// measured loop then lasts `--seconds` of wall time (at least three
// calls), not counting the set-up repeats spread over it. Every call is
// checked: a system fails when the solver says it did not converge, when
// its independent true residual ||b - A x|| is not finite or exceeds
// 100 x tol plus the solver's rounding allowance (see gap_allowance), on
// picard_step when its conservation error exceeds 1e-12, and on
// gpusim_ell when its iteration count differs from solve_batch(ell).
//
// The untraced run yields the end-to-end metrics. `--traced` re-runs the
// same loop with bench-side spans around each call into a layer's public
// function, then probes every layer once on the workload's own batch; this
// yields the per-layer metrics. Spans live in memory and are written as
// Chrome trace JSON to `--trace-out` at exit. The obs layer is never turned
// on for tracing, because obs is one of the layers being measured.
//
// Output: one line per metric ("metric <name> <value> <unit> n=<samples>"),
// then as the last line one JSON object with the keys correct, attempted,
// failed, metrics, env and call_walls_s.

#include <omp.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "blas/kernels.hpp"
#include "core/solver.hpp"
#include "exec/executor.hpp"
#include "matrix/conversions.hpp"
#include "obs/telemetry.hpp"
#include "util/timer.hpp"
#include "xgc/picard.hpp"
#include "xgc/workload.hpp"

namespace {

using namespace bsis;

constexpr real_type residual_limit = 100 * SolverSettings{}.tolerance;
constexpr real_type gap_factor = 100;
constexpr real_type conservation_limit = 1e-12;
constexpr int setup_repeats = 7;
constexpr int min_calls = 3;
constexpr real_type dt = xgc::PicardSettings{}.dt;

double quantile(std::vector<double> v, double q)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const auto hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ---- bench-side spans --------------------------------------------------

/// Spans recorded by the benchmark around its calls into the layers: name,
/// start, end and parent, kept in memory and written as Chrome JSON.
/// Single-threaded: only the closed-loop caller records.
class Spans {
public:
    struct Span {
        const char* name;
        double start_us;
        double end_us;
        int parent;
    };

    explicit Spans(bool on) : on_(on), epoch_(std::chrono::steady_clock::now())
    {}

    void open(const char* name)
    {
        if (!on_) {
            return;
        }
        const int parent = stack_.empty() ? -1 : stack_.back();
        stack_.push_back(static_cast<int>(spans_.size()));
        spans_.push_back({name, now_us(), 0.0, parent});
    }

    void close()
    {
        if (!on_) {
            return;
        }
        spans_[static_cast<std::size_t>(stack_.back())].end_us = now_us();
        stack_.pop_back();
    }

    std::size_t size() const { return spans_.size(); }

    /// Self seconds of span `index`: its duration minus the part its child
    /// spans cover.
    double self_s(std::size_t index) const
    {
        const auto& span = spans_[index];
        double child_us = 0;
        for (std::size_t i = index + 1; i < spans_.size(); ++i) {
            if (spans_[i].parent == static_cast<int>(index)) {
                child_us += spans_[i].end_us - spans_[i].start_us;
            }
        }
        return (span.end_us - span.start_us - child_us) * 1e-6;
    }

    bool write_chrome(const std::string& path) const
    {
        std::ofstream out(path);
        out.precision(15);
        out << "{\"traceEvents\": [";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const auto& s = spans_[i];
            out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
                << "\", \"cat\": \"bench\", \"ph\": \"X\", \"pid\": 1,"
                   " \"tid\": 1, \"ts\": "
                << s.start_us << ", \"dur\": " << s.end_us - s.start_us
                << ", \"args\": {\"id\": " << i << ", \"parent\": "
                << s.parent << "}}";
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

private:
    double now_us() const
    {
        return std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    bool on_;
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

class Scope {
public:
    Scope(Spans& spans, const char* name) : spans_(spans)
    {
        spans_.open(name);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { spans_.close(); }

private:
    Spans& spans_;
};

/// Runs `f` `reps` times, each under a span, and returns the median wall.
template <typename F>
double time_median(Spans& spans, const char* name, int reps, F&& f)
{
    std::vector<double> walls;
    for (int r = 0; r < reps; ++r) {
        Scope s(spans, name);
        Timer t;
        f();
        walls.push_back(t.seconds());
    }
    return median(walls);
}

void set_telemetry(bool on)
{
    obs::set_metrics_enabled(on);
    obs::set_trace_enabled(on);
}

// ---- correctness -------------------------------------------------------

/// How far system `i`'s true residual may sit above residual_limit.
/// BiCGStab stops on its recursive residual r_j, and rounding lets the
/// true residual b - A x drift from it by up to a small multiple of
/// eps * sum_j ||r_j|| (Sleijpen & van der Vorst). On the few systems
/// whose residual peaks 1e3-1e4 times above ||r_0|| before converging,
/// that drift reaches several hundred times tol; it measures 5-8 x
/// eps * sum_j ||r_j|| there. The sum comes from re-solving the system
/// alone, untimed, from the same initial guess (zero when `x0` is null),
/// with convergence recording and telemetry off.
real_type gap_allowance(const BatchCsr<real_type>& a, size_type i,
                        const BatchVector<real_type>& b,
                        const BatchVector<real_type>* x0,
                        SolverSettings settings)
{
    const index_type n = a.rows();
    BatchCsr<real_type> one(1, n, a.row_ptrs(), a.col_idxs());
    std::copy(a.values(i), a.values(i) + a.nnz_per_entry(), one.values(0));
    BatchVector<real_type> one_b(1, n);
    BatchVector<real_type> one_x(1, n);
    blas::copy(b.entry(i), one_b.entry(0));
    if (x0 != nullptr) {
        blas::copy(x0->entry(i), one_x.entry(0));
    }
    settings.use_initial_guess = x0 != nullptr;
    settings.record_convergence = true;
    settings.convergence_capacity = settings.max_iterations + 1;
    const bool telemetry = obs::trace_enabled();
    set_telemetry(false);
    const auto result = solve_batch(one, one_b, one_x, settings);
    set_telemetry(telemetry);
    real_type sum = 0;
    for (const auto& p : result.history.points(0)) {
        sum += p.residual;
    }
    return gap_factor * std::numeric_limits<real_type>::epsilon() * sum;
}

/// Marks in `bad` the systems of one solve that failed: not converged by
/// the solver's own flag, or an independent true residual ||b - A x|| that
/// is non-finite or above residual_limit plus the system's gap_allowance
/// (computed only for the rare systems above residual_limit). `x0` is the
/// solve's initial guess, null for a zero guess. Raises `worst` to the
/// worst finite residual.
void mark_failed(const BatchCsr<real_type>& a, const BatchVector<real_type>& b,
                 const BatchVector<real_type>& x,
                 const BatchVector<real_type>* x0, const BatchLog& log,
                 const SolverSettings& settings, std::vector<char>& bad,
                 real_type& worst)
{
    const size_type nsys = a.num_batch();
    const index_type n = a.rows();
    std::vector<real_type> res(static_cast<std::size_t>(nsys));
#pragma omp parallel
    {
        std::vector<real_type> ax(static_cast<std::size_t>(n));
#pragma omp for schedule(static)
        for (size_type i = 0; i < nsys; ++i) {
            spmv(a.entry(i), x.entry(i), VecView<real_type>{ax.data(), n});
            const auto bi = b.entry(i);
            real_type sum = 0;
            for (index_type r = 0; r < n; ++r) {
                const real_type d = bi[r] - ax[static_cast<std::size_t>(r)];
                sum += d * d;
            }
            res[static_cast<std::size_t>(i)] = std::sqrt(sum);
        }
    }
    for (size_type i = 0; i < nsys; ++i) {
        const real_type r = res[static_cast<std::size_t>(i)];
        if (std::isfinite(r)) {
            worst = std::max(worst, r);
        }
        const bool ok =
            log.converged(i) &&
            (r <= residual_limit ||
             (std::isfinite(r) &&
              r <= residual_limit + gap_allowance(a, i, b, x0, settings)));
        if (!ok) {
            bad[static_cast<std::size_t>(i)] = 1;
        }
    }
}

// ---- workloads ---------------------------------------------------------

enum class Kind { picard, solve, gpusim };

struct Spec {
    const char* name;
    Kind kind;
    size_type mesh_nodes;  ///< two species per node
    bool lockstep;         ///< lockstep_width 8, pipelined
    bool telemetry;        ///< obs metrics and tracing on
    bool ell;              ///< solves the ELL form
};

// Why each workload exists: bench_e2e/README.md.
constexpr Spec specs[] = {
    {"picard_step", Kind::picard, 128, false, false, false},
    {"cold_scalar", Kind::solve, 500, false, false, false},
    {"cold_lockstep", Kind::solve, 500, true, false, false},
    {"cold_telemetry", Kind::solve, 500, false, true, false},
    {"gpusim_ell", Kind::gpusim, 500, false, false, true},
};

SolverSettings settings_of(const Spec& spec)
{
    SolverSettings s;
    if (spec.lockstep) {
        s.lockstep_width = 8;
        s.pipelined = true;
    }
    return s;
}

xgc::WorkloadParams params_of(const Spec& spec, std::uint64_t seed)
{
    xgc::WorkloadParams p;
    p.num_mesh_nodes = spec.mesh_nodes;
    p.seed = seed;
    return p;
}

/// One workload's state: the collision workload, its first-Picard batch
/// (the zero-guess rhs is f^n) and, where the workload solves it, its ELL
/// form. Construction is the timed set-up.
struct Batch {
    xgc::CollisionWorkload wl;
    BatchCsr<real_type> csr;
    std::optional<BatchEll<real_type>> ell;
    BatchVector<real_type> f0;

    Batch(const Spec& spec, std::uint64_t seed)
        : wl(params_of(spec, seed)),
          csr(wl.make_matrix_batch()),
          f0(wl.distributions())
    {
        wl.assemble_batch(wl.distributions(), wl.distributions(), dt, csr);
        if (spec.ell) {
            ell = to_ell(csr);
        }
    }

    size_type systems() const { return csr.num_batch(); }
    const BatchVector<real_type>& b() const { return wl.distributions(); }
};

/// Per-call record of a workload call.
struct Call {
    double wall_s = 0;
    std::int64_t failed = 0;
};

class Bench {
public:
    Bench(const Spec& spec, std::unique_ptr<Batch> batch, Spans& spans)
        : spec_(spec),
          batch_(std::move(batch)),
          spans_(spans),
          settings_(settings_of(spec)),
          telemetry_(spec.telemetry),
          x_(batch_->systems(), batch_->csr.rows()),
          v100_(gpusim::v100()),
          mi100_(gpusim::mi100())
    {
        if (spec_.kind == Kind::gpusim) {
            // Reference iteration counts for the parity check (untimed).
            const auto ref =
                solve_batch(*batch_->ell, batch_->b(), x_, settings_);
            for (size_type i = 0; i < batch_->systems(); ++i) {
                ref_iters_.push_back(ref.log.iterations(i));
            }
        }
    }

    const Spec& spec() const { return spec_; }
    Batch& batch() { return *batch_; }
    const SolverSettings& settings() const { return settings_; }
    size_type systems() const { return batch_->systems(); }
    void set_telemetry_on(bool on) { telemetry_ = on; }

    /// Replaces the batch with `build()`, dropping the old one first so
    /// that two are never held at once. The seed gives the same inputs.
    template <typename Build>
    void rebuild(Build&& build)
    {
        batch_.reset();
        batch_ = build();
    }

    /// One timed batch call; the checks run untimed. With `count_spans`,
    /// the obs spans the call recorded are counted (last_obs_spans). That
    /// copies the whole trace, so the measured loop does not do it: the
    /// copy's size would follow how the host split the work among threads,
    /// and with it peak RSS.
    Call call(bool count_spans = false)
    {
        set_telemetry(telemetry_);
        Call c;
        switch (spec_.kind) {
        case Kind::picard: c = picard_call(); break;
        case Kind::solve: c = solve_call(); break;
        case Kind::gpusim: c = gpusim_call(); break;
        }
        if (telemetry_) {
            trace_dropped_ += obs::trace().dropped();  // clear() resets it
            if (count_spans) {
                last_obs_spans_ = static_cast<std::int64_t>(
                    obs::trace().snapshot().size());
            }
            obs::trace().clear();
            set_telemetry(false);
        }
        return c;
    }

    std::int64_t trace_dropped() const { return trace_dropped_; }
    std::int64_t last_obs_spans() const { return last_obs_spans_; }
    real_type worst_residual() const { return worst_residual_; }
    const std::vector<double>& solve_walls() const { return solve_walls_; }
    const std::vector<double>& iters_per_system() const
    {
        return iters_per_system_;
    }
    const std::vector<double>& model_s() const { return model_s_; }
    double kernel_s(bool v100) const
    {
        return v100 ? v100_kernel_s_ : mi100_kernel_s_;
    }

private:
    void record_solve(double wall, const BatchLog& log)
    {
        solve_walls_.push_back(wall);
        iters_per_system_.push_back(
            static_cast<double>(log.total_iterations()) /
            static_cast<double>(std::max<size_type>(1, log.num_batch())));
    }

    Call picard_call()
    {
        auto& wl = batch_->wl;
        wl.distributions() = batch_->f0;
        std::vector<char> bad(static_cast<std::size_t>(systems()), 0);
        double check_s = 0;
        const auto reference = xgc::make_reference_solver(settings_);
        const xgc::BatchLinearSolver solve =
            [&](const BatchCsr<real_type>& a, const BatchVector<real_type>& b,
                BatchVector<real_type>& x, bool warm, int k) {
                {
                    // The warm start, kept for the check's re-solves.
                    Timer t;
                    if (warm) {
                        x0_ = x;
                    }
                    check_s += t.seconds();
                }
                BatchLog log;
                {
                    Scope s(spans_, "core.solve_batch");
                    Timer t;
                    log = reference(a, b, x, warm, k);
                    record_solve(t.seconds(), log);
                }
                Scope s(spans_, "bench.check");
                Timer t;
                mark_failed(a, b, x, warm ? &x0_ : nullptr, log, settings_,
                            bad, worst_residual_);
                check_s += t.seconds();
                return log;
            };
        Call c;
        xgc::PicardReport report;
        {
            Scope s(spans_, "xgc.implicit_collision_step");
            Timer t;
            report = xgc::implicit_collision_step(wl, xgc::PicardSettings{},
                                                  solve);
            c.wall_s = t.seconds() - check_s;
        }
        for (size_type i = 0; i < systems(); ++i) {
            const auto err =
                report.conservation_errors[static_cast<std::size_t>(i)];
            if (!(err <= conservation_limit)) {
                bad[static_cast<std::size_t>(i)] = 1;
            }
        }
        c.failed = std::count(bad.begin(), bad.end(), 1);
        wl.distributions() = batch_->f0;
        return c;
    }

    Call solve_call()
    {
        Call c;
        BatchSolveResult result;
        {
            Scope s(spans_, "core.solve_batch");
            Timer t;
            result = solve_batch(batch_->csr, batch_->b(), x_, settings_);
            c.wall_s = t.seconds();
        }
        record_solve(c.wall_s, result.log);
        Scope s(spans_, "bench.check");
        std::vector<char> bad(static_cast<std::size_t>(systems()), 0);
        mark_failed(batch_->csr, batch_->b(), x_, nullptr, result.log,
                    settings_, bad, worst_residual_);
        c.failed = std::count(bad.begin(), bad.end(), 1);
        return c;
    }

    Call gpusim_call()
    {
        // Alternate the warp-32 and warp-64 device models.
        const bool v100 = calls_++ % 2 == 0;
        const auto& exec = v100 ? v100_ : mi100_;
        Call c;
        GpuSolveReport report;
        {
            Scope s(spans_, "exec.solve");
            Timer t;
            report = exec.solve(*batch_->ell, batch_->b(), x_, settings_,
                                false);
            c.wall_s = t.seconds();
        }
        record_solve(report.wall_seconds, report.log);
        model_s_.push_back(c.wall_s - report.wall_seconds);
        (v100 ? v100_kernel_s_ : mi100_kernel_s_) = report.kernel_seconds;
        Scope s(spans_, "bench.check");
        std::vector<char> bad(static_cast<std::size_t>(systems()), 0);
        // The ELL batch is the CSR batch converted; the residual and any
        // re-solve use the CSR form.
        mark_failed(batch_->csr, batch_->b(), x_, nullptr, report.log,
                    settings_, bad, worst_residual_);
        for (size_type i = 0; i < systems(); ++i) {
            if (report.log.iterations(i) !=
                ref_iters_[static_cast<std::size_t>(i)]) {
                bad[static_cast<std::size_t>(i)] = 1;
            }
        }
        c.failed = std::count(bad.begin(), bad.end(), 1);
        return c;
    }

    const Spec& spec_;
    std::unique_ptr<Batch> batch_;
    Spans& spans_;
    SolverSettings settings_;
    bool telemetry_;
    BatchVector<real_type> x_;
    BatchVector<real_type> x0_;  ///< picard_step: a solve's warm start
    SimGpuExecutor v100_;
    SimGpuExecutor mi100_;
    std::vector<int> ref_iters_;
    std::int64_t calls_ = 0;
    std::int64_t trace_dropped_ = 0;
    std::int64_t last_obs_spans_ = 0;
    real_type worst_residual_ = 0;
    std::vector<double> solve_walls_;
    std::vector<double> iters_per_system_;
    std::vector<double> model_s_;
    double v100_kernel_s_ = 0;
    double mi100_kernel_s_ = 0;
};

// ---- output ------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::size_t n;
};

class Report {
public:
    void add(std::string name, double value, std::string unit,
             std::size_t n = 1)
    {
        std::printf("metric %-32s %.9g %s n=%zu\n", name.c_str(), value,
                    unit.c_str(), n);
        metrics_.push_back({std::move(name), value, std::move(unit), n});
    }

    void info(const std::string& line) { std::printf("%s\n", line.c_str()); }

    std::string json(bool correct, std::int64_t attempted,
                     std::int64_t failed,
                     const std::vector<double>& call_walls) const
    {
        std::ostringstream out;
        out.precision(17);
        out << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const auto& m = metrics_[i];
            out << (i == 0 ? "" : ", ") << "\"" << m.name
                << "\": {\"value\": " << m.value << ", \"unit\": \""
                << m.unit << "\", \"n\": " << m.n << "}";
        }
        const auto env = [](const char* name) {
            const char* v = std::getenv(name);
            return std::string(v == nullptr ? "" : v);
        };
        out << "}, \"env\": {\"OMP_NUM_THREADS\": \"" << env("OMP_NUM_THREADS")
            << "\", \"OMP_PROC_BIND\": \"" << env("OMP_PROC_BIND")
            << "\", \"OMP_PLACES\": \"" << env("OMP_PLACES")
            << "\", \"threads\": " << omp_get_max_threads()
            << "}, \"call_walls_s\": [";
        for (std::size_t i = 0; i < call_walls.size(); ++i) {
            out << (i == 0 ? "" : ", ") << call_walls[i];
        }
        out << "]}";
        return out.str();
    }

private:
    std::vector<Metric> metrics_;
};

double peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---- layer probes (traced run) -------------------------------------------

constexpr int probe_reps = 5;
constexpr int xgc_pairs = 3;

/// What the traced main loop measured, taken before the probes add calls.
struct MainLoop {
    std::vector<double> call_walls;
    std::vector<double> solve_walls;
    std::vector<double> iters_per_system;
    std::vector<double> model_s;
    double spans_per_call = 0;
};

/// Measures every layer once on the workload's own batch, from outside:
/// each probe is a call into one layer's public function under a span.
void probe_layers(Bench& bench, Spans& spans, Report& report,
                  const MainLoop& main, double seconds)
{
    Scope probe(spans, "bench.probe");
    auto& batch = bench.batch();
    const auto& csr = batch.csr;
    const size_type nsys = batch.systems();
    const index_type n = csr.rows();
    const double elems = static_cast<double>(nsys) * n;
    const bool telemetry = bench.spec().telemetry;
    const auto settings = bench.settings();

    // Probe calls may record more than one solve's spans.
    obs::trace().set_shard_capacity(std::size_t{1} << 20);

    // xgc: (assembly, Picard step) pairs on the workload's batch and
    // solver. Each assembly runs right before its step so the two share
    // the machine's state; the step's self time excludes the solver
    // callbacks, and the remainder is what is neither solve nor assembly.
    const auto f0 = batch.wl.distributions();
    const auto reference = xgc::make_reference_solver(settings);
    const xgc::BatchLinearSolver solve =
        [&](const BatchCsr<real_type>& a, const BatchVector<real_type>& b,
            BatchVector<real_type>& xs, bool warm, int k) {
            Scope s(spans, "core.solve_batch");
            return reference(a, b, xs, warm, k);
        };
    std::vector<double> assemble;
    std::vector<double> self;
    std::vector<double> other;
    for (int r = 0; r < xgc_pairs; ++r) {
        assemble.push_back(time_median(spans, "xgc.assemble_batch", 1, [&] {
            batch.wl.assemble_batch(f0, f0, dt, batch.csr);
        }));
        const auto step_span = spans.size();
        set_telemetry(telemetry);
        {
            Scope s(spans, "xgc.implicit_collision_step");
            xgc::implicit_collision_step(batch.wl, xgc::PicardSettings{},
                                         solve);
        }
        set_telemetry(false);
        obs::trace().clear();
        batch.wl.distributions() = f0;
        self.push_back(spans.self_s(step_span));
        other.push_back(self.back() - xgc::PicardSettings{}.num_iterations *
                                          assemble.back());
    }
    report.add("xgc.assemble_s", median(assemble), "s", xgc_pairs);
    report.add("xgc.step_self_s", median(self), "s", xgc_pairs);
    report.add("xgc.other_s", median(other), "s", xgc_pairs);

    // host: STREAM triad over three arrays of the workload's vector size,
    // the reference the GB/s below are divided by.
    BatchVector<real_type> va(nsys, n, 1.0);
    BatchVector<real_type> vb(nsys, n, 2.0);
    BatchVector<real_type> vc(nsys, n, 0.5);
    const auto triad_s = time_median(spans, "host.triad", probe_reps, [&] {
        real_type* a = va.entry(0).data;
        const real_type* b = vb.entry(0).data;
        const real_type* c = vc.entry(0).data;
        const auto len = static_cast<std::int64_t>(va.size());
#pragma omp parallel for schedule(static)
        for (std::int64_t i = 0; i < len; ++i) {
            a[i] = b[i] + 3.0 * c[i];
        }
    });
    const double peak_gbs = 3 * 8 * elems / triad_s * 1e-9;
    report.info("host working set: 3 arrays x " +
                std::to_string(static_cast<long long>(8 * elems)) +
                " bytes");
    report.add("host.triad_ws_gbs", peak_gbs, "GB/s", probe_reps);

    // blas: the two fused BiCGStab kernels, one sweep over the batch.
    const auto& cb = vb;
    const auto& cc = vc;
    const auto zaxpby_s =
        time_median(spans, "blas.zaxpby_nrm2", probe_reps, [&] {
#pragma omp parallel for schedule(static)
            for (size_type i = 0; i < nsys; ++i) {
                blas::zaxpby_nrm2(1.0, cb.entry(i), -0.5, cc.entry(i),
                                  va.entry(i));
            }
        });
    real_type dot_sum = 0;
    const auto dot2_s = time_median(spans, "blas.dot2", probe_reps, [&] {
        real_type sum = 0;
#pragma omp parallel for schedule(static) reduction(+ : sum)
        for (size_type i = 0; i < nsys; ++i) {
            real_type d1 = 0;
            real_type d2 = 0;
            blas::dot2(cb.entry(i), cc.entry(i), std::as_const(va).entry(i),
                       d1, d2);
            sum += d1 + d2;
        }
        dot_sum += sum;
    });
    if (!std::isfinite(dot_sum)) {  // also keeps the sweeps observable
        report.info("blas.dot2 probe: non-finite sum");
    }
    const double zaxpby_gbs = 3 * 8 * elems / zaxpby_s * 1e-9;
    const double dot2_gbs = 3 * 8 * elems / dot2_s * 1e-9;
    report.add("blas.zaxpby_nrm2_gbs", zaxpby_gbs, "GB/s", probe_reps);
    report.add("blas.zaxpby_nrm2_peak_frac", zaxpby_gbs / peak_gbs, "ratio",
               probe_reps);
    report.add("blas.dot2_gbs", dot2_gbs, "GB/s", probe_reps);
    report.add("blas.dot2_peak_frac", dot2_gbs / peak_gbs, "ratio",
               probe_reps);

    // matrix: format conversion and one public spmv sweep per format.
    std::optional<BatchEll<real_type>> ell_local;
    const auto to_ell_s = time_median(spans, "matrix.to_ell", 3, [&] {
        ell_local.reset();
        ell_local = to_ell(csr);
    });
    const auto& ell = *ell_local;
    const auto spmv_csr_s =
        time_median(spans, "matrix.spmv_csr", probe_reps, [&] {
#pragma omp parallel for schedule(static)
            for (size_type i = 0; i < nsys; ++i) {
                spmv(csr.entry(i), batch.b().entry(i), va.entry(i));
            }
        });
    const auto spmv_ell_s =
        time_median(spans, "matrix.spmv_ell", probe_reps, [&] {
#pragma omp parallel for schedule(static)
            for (size_type i = 0; i < nsys; ++i) {
                spmv(ell.entry(i), batch.b().entry(i), va.entry(i));
            }
        });
    // Computed bytes per entry: values, the shared pattern as read by
    // the entry, x and y.
    const double nnz = csr.nnz_per_entry();
    const double csr_bytes =
        static_cast<double>(nsys) * (nnz * 12 + (n + 1) * 4.0 + n * 16.0);
    const double csr_gbs = csr_bytes / spmv_csr_s * 1e-9;
    report.add("matrix.to_ell_s", to_ell_s, "s", 3);
    report.add("matrix.spmv_csr_s", spmv_csr_s, "s", probe_reps);
    report.add("matrix.spmv_ell_s", spmv_ell_s, "s", probe_reps);
    report.add("matrix.spmv_csr_gbs", csr_gbs, "GB/s", probe_reps);
    report.add("matrix.spmv_csr_peak_frac", csr_gbs / peak_gbs, "ratio",
               probe_reps);

    // core: the workload's solve composition on its batch and format.
    const auto solve_on = [&](BatchVector<real_type>& x,
                              const SolverSettings& s) {
        set_telemetry(telemetry);
        auto res = batch.ell ? solve_batch(*batch.ell, batch.b(), x, s)
                             : solve_batch(csr, batch.b(), x, s);
        set_telemetry(false);
        obs::trace().clear();
        return res;
    };
    BatchVector<real_type> x(nsys, n);
    solve_on(x, settings);
    // Driver cost: seeded with its own converged solution -> ~0 iterations.
    auto seeded = settings;
    seeded.use_initial_guess = true;
    std::vector<double> driver_walls;
    std::vector<double> gaps;
    double driver_iters = 0;
    for (int r = 0; r < probe_reps; ++r) {
        auto xs = x;
        Scope s(spans, "core.solve_batch.seeded");
        Timer t;
        const auto res = solve_on(xs, seeded);
        const double wall = t.seconds();
        driver_walls.push_back(wall);
        gaps.push_back(wall - res.wall_seconds);
        driver_iters = static_cast<double>(res.log.total_iterations()) /
                       static_cast<double>(nsys);
    }
    // Parallel efficiency: 1 thread vs all threads, ABAB.
    const int threads = omp_get_max_threads();
    std::vector<double> one;
    std::vector<double> all;
    for (int r = 0; r < 2; ++r) {
        for (const int t : {threads, 1}) {
            omp_set_num_threads(t);
            Scope s(spans, t == 1 ? "core.solve_batch.1thread"
                                  : "core.solve_batch.nthreads");
            Timer timer;
            solve_on(x, settings);
            (t == 1 ? one : all).push_back(timer.seconds());
        }
    }
    omp_set_num_threads(threads);

    const double solve_s = median(main.solve_walls);
    const double iters = median(main.iters_per_system);
    report.add("core.solve_s", solve_s, "s", main.solve_walls.size());
    report.add("core.iters_per_system", iters, "count",
               main.iters_per_system.size());
    report.add("core.s_per_system_iter",
               solve_s / (std::max(iters, 1e-9) * static_cast<double>(nsys)),
               "s", main.solve_walls.size());
    report.add("core.driver_s", median(driver_walls), "s", probe_reps);
    report.info("core.driver iterations per system: " +
                std::to_string(driver_iters));
    report.add("core.wall_gap_s", median(gaps), "s", probe_reps);
    report.add("core.parallel_eff",
               median(one) / (threads * median(all)), "ratio", 2);

    // exec/gpusim: modeled device time on the ELL batch (the main loop's
    // own calls on gpusim_ell).
    double v100_s = bench.kernel_s(true);
    double mi100_s = bench.kernel_s(false);
    auto model = main.model_s;
    if (bench.spec().kind != Kind::gpusim) {
        for (const bool v100 : {true, false}) {
            SimGpuExecutor exec(v100 ? gpusim::v100() : gpusim::mi100());
            Scope s(spans, "exec.solve");
            Timer t;
            const auto rep = exec.solve(ell, batch.b(), x, settings, false);
            model.push_back(t.seconds() - rep.wall_seconds);
            (v100 ? v100_s : mi100_s) = rep.kernel_seconds;
        }
    }
    report.add("gpusim.model_s", median(model), "s", model.size());
    report.add("gpusim.v100_kernel_s", v100_s, "s");
    report.add("gpusim.mi100_kernel_s", mi100_s, "s");

    // lapack: the paper's CPU dgbsv baseline on a slice of the batch.
    const size_type slice = std::min<size_type>(32, nsys);
    BatchCsr<real_type> sub(slice, n, csr.row_ptrs(), csr.col_idxs());
    std::copy(csr.values(0), csr.values(0) + slice * csr.nnz_per_entry(),
              sub.values(0));
    BatchVector<real_type> sub_b(slice, n);
    BatchVector<real_type> sub_x(slice, n);
    for (size_type i = 0; i < slice; ++i) {
        blas::copy(batch.b().entry(i), sub_b.entry(i));
    }
    const CpuExecutor cpu;
    const auto gbsv_s = time_median(spans, "lapack.gbsv", 3, [&] {
        cpu.gbsv(sub, sub_b, sub_x);
    }) / static_cast<double>(slice);
    report.add("lapack.gbsv_s", gbsv_s, "s", 3);
    report.add("lapack.iterative_speedup",
               gbsv_s / (solve_s / static_cast<double>(nsys)), "ratio", 3);

    // obs: the workload's call with telemetry on vs off, ABBA-paired.
    const Timer obs_budget;
    std::vector<double> ratios;
    std::int64_t obs_spans = 0;
    do {
        double on[2] = {0, 0};
        double off[2] = {0, 0};
        constexpr bool order[2][2] = {{false, true}, {true, false}};
        for (int slot = 0; slot < 2; ++slot) {
            for (const bool tel : order[slot]) {
                bench.set_telemetry_on(tel);
                Scope s(spans, tel ? "bench.call.obs_on"
                                   : "bench.call.obs_off");
                (tel ? on : off)[slot] = bench.call(tel).wall_s;
                if (tel) {
                    obs_spans = bench.last_obs_spans();
                }
            }
        }
        ratios.push_back(on[0] / off[0]);
        ratios.push_back(on[1] / off[1]);
    } while (obs_budget.seconds() < 0.2 * seconds && ratios.size() < 16);
    bench.set_telemetry_on(telemetry);
    report.add("obs.overhead_ratio", median(ratios), "ratio", ratios.size());
    report.add("obs.spans_per_call", static_cast<double>(obs_spans), "count");

    // bench: tail of the call wall and the cost of the bench's own spans.
    report.add("bench.batch_p90_s", quantile(main.call_walls, 0.9), "s",
               main.call_walls.size());
    Spans scratch(true);
    constexpr int span_reps = 20000;
    Timer span_timer;
    for (int i = 0; i < span_reps; ++i) {
        Scope s(scratch, "x");
    }
    const double per_span = span_timer.seconds() / span_reps;
    report.add("bench.trace_overhead_frac",
               per_span * main.spans_per_call / median(main.call_walls),
               "ratio", span_reps);
}

int usage()
{
    std::cerr << "usage: bench_e2e --workload <name> [--seed N] [--seconds S]"
                 " [--traced] [--trace-out FILE]\nworkloads:";
    for (const auto& s : specs) {
        std::cerr << " " << s.name;
    }
    std::cerr << "\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv)
{
    std::string workload;
    std::uint64_t seed = 7;
    double seconds = 10;
    bool traced = false;
    std::string trace_out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value) {
            workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--traced") {
            traced = true;
        } else if (arg == "--trace-out" && has_value) {
            trace_out = argv[++i];
        } else {
            return usage();
        }
    }
    const Spec* spec = nullptr;
    for (const auto& s : specs) {
        if (workload == s.name) {
            spec = &s;
        }
    }
    if (spec == nullptr || !(seconds > 0)) {
        return usage();
    }

    Report report;
    Spans spans(traced);

    // Set-up is timed setup_repeats times, spread evenly over the run
    // rather than in one burst before it: on a shared host a few seconds
    // in a row can all be slow. Each later sample rebuilds the running
    // batch between two calls, outside their timing.
    std::vector<double> setup_walls;
    const auto build = [&] {
        Scope s(spans, "bench.setup");
        Timer t;
        auto batch = std::make_unique<Batch>(*spec, seed);
        setup_walls.push_back(t.seconds());
        return batch;
    };
    Bench bench(*spec, build(), spans);
    double rebuild_s = 0;
    const auto rebuild = [&] {
        const Timer t;
        bench.rebuild(build);
        rebuild_s += t.seconds();
    };

    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    // Warm-up, outside the measured loop; its span count sizes the trace.
    const auto first = bench.call(true);
    attempted += bench.systems();
    failed += first.failed;
    if (spec->telemetry) {
        // The trace shard holds one whole solve: the warm-up's span count.
        obs::trace().set_shard_capacity(
            static_cast<std::size_t>(bench.last_obs_spans()));
        report.info("trace shard capacity: " +
                    std::to_string(bench.last_obs_spans()));
    }

    std::vector<double> walls;
    const Timer run;
    const auto calls_s = [&] { return run.seconds() - rebuild_s; };
    while (walls.size() < static_cast<std::size_t>(min_calls) ||
           calls_s() < seconds) {
        if (setup_walls.size() < static_cast<std::size_t>(setup_repeats) &&
            calls_s() >= seconds * static_cast<double>(setup_walls.size()) /
                             setup_repeats) {
            rebuild();
        }
        const auto c = bench.call();
        walls.push_back(c.wall_s);
        attempted += bench.systems();
        failed += c.failed;
    }
    while (setup_walls.size() < static_cast<std::size_t>(setup_repeats)) {
        rebuild();  // only when the calls ended before the schedule did
    }
    // The first call's excess over the call right after it (which shares
    // its machine state) is lazy set-up: workspace pools, first touch. It
    // is printed but not part of setup_s: as the difference of two single
    // calls it swings by more than the construction takes.
    const double first_excess = std::max(0.0, first.wall_s - walls.front());
    const double setup_s = median(setup_walls);
    // Throughput of the fastest call. On a shared host, other tenants slow
    // calls by 5-40% in bursts; the fastest call is the one they slowed
    // least, the nearest to a dedicated node. Across runs it spreads half
    // as much as the median call or less (bench_e2e/README.md).
    const double best_s = *std::min_element(walls.begin(), walls.end());
    const double systems_per_s = static_cast<double>(bench.systems()) / best_s;

    const auto& csr = bench.batch().csr;
    report.info("workload " + std::string(spec->name) + " seed " +
                std::to_string(seed) + " systems " +
                std::to_string(bench.systems()) + " calls " +
                std::to_string(walls.size()) + (traced ? " traced" : ""));
    report.info("batch: " + std::to_string(csr.rows()) + " rows, " +
                std::to_string(csr.nnz_per_entry()) +
                " nnz per system, CSR storage " +
                std::to_string(csr.storage_bytes()) + " bytes");
    if (traced) {
        // Reported for the traced-vs-untraced comparison only.
        report.info("traced systems_per_s " + std::to_string(systems_per_s));
        MainLoop main;
        main.call_walls = walls;
        main.solve_walls = bench.solve_walls();
        main.iters_per_system = bench.iters_per_system();
        main.model_s = bench.model_s();
        main.spans_per_call =
            static_cast<double>(spans.size() - setup_repeats) /
            static_cast<double>(walls.size() + 1);
        probe_layers(bench, spans, report, main, seconds);
    } else {
        report.add("systems_per_s", systems_per_s, "1/s", walls.size());
        report.info("call wall: fastest " + std::to_string(best_s) +
                    " s, median " + std::to_string(median(walls)) + " s");
        report.info("first-call excess (not in setup_s): " +
                    std::to_string(first_excess) + " s");
        std::string samples = "setup samples (s):";
        for (const double w : setup_walls) {
            samples += " " + std::to_string(w);
        }
        report.info(samples);
        report.add("setup_s", setup_s, "s", setup_repeats);
        report.add("peak_rss_mb", peak_rss_mb(), "MB");
    }
    std::ostringstream worst;
    worst << "worst true residual / tol: "
          << bench.worst_residual() / SolverSettings{}.tolerance;
    report.info(worst.str());
    if (bench.trace_dropped() > 0) {
        report.info("obs trace dropped " +
                    std::to_string(bench.trace_dropped()) + " spans");
    }
    if (traced && !trace_out.empty() && !spans.write_chrome(trace_out)) {
        std::cerr << "bench_e2e: cannot write " << trace_out << "\n";
        return 1;
    }
    const bool correct = failed == 0 && bench.trace_dropped() == 0;
    std::cout << report.json(correct, attempted, failed, walls) << std::endl;
    return 0;
}
