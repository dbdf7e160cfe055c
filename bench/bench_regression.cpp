// Perf-regression harness for the batched solvers.
//
// Times the canonical workload of the paper -- BiCGStab+Jacobi over a
// batch of 992-row / 9-nnz-per-row collision systems -- on the host (wall
// time, fused vs unfused kernels, CSR and ELL) and on the modeled devices
// (kernel seconds at warp 32 and warp 64), and writes the medians to
// BENCH_solvers.json so successive commits can be compared.
//
// Usage: bench_regression [--smoke] [--out <path>] [--baseline <path>]
//   --smoke    tiny batch / few repetitions (the `perf`-labeled ctest run)
//   --out      output path for the JSON (default: BENCH_solvers.json)
//   --baseline committed BENCH_solvers.json to gate against: the csr/fused
//              median (telemetry compiled in but disabled) must stay
//              within 2% of the baseline's. Skipped for smoke runs and
//              when the workload sizes differ.
// Full-size runs also gate the cost of telemetry when it is ON: metrics
// and tracing together must add at most 20% to the csr/fused solve
// (ABBA-paired reps, median of ratios). Any dropped trace span fails
// every run, smoke included.
// BSIS_QUICK=1 is honored like --smoke.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/monitor.hpp"
#include "obs/telemetry.hpp"

namespace {

using namespace bsis;

double median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n == 0 ? 0.0
                  : (n % 2 == 1 ? v[n / 2]
                                : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

double mean_iterations(const BatchLog& log)
{
    double sum = 0;
    for (size_type i = 0; i < log.num_batch(); ++i) {
        sum += log.iterations(i);
    }
    return log.num_batch() == 0 ? 0.0
                                : sum / static_cast<double>(log.num_batch());
}

/// One timed host configuration: median wall seconds over the repetitions.
struct HostCase {
    std::string format;
    std::string variant;
    double median_wall_seconds = 0;
    double mean_iterations = 0;
    bool all_converged = false;
};

/// One modeled device configuration (deterministic, no repetitions).
struct DeviceCase {
    std::string device;
    int warp_size = 0;
    std::string format;
    std::string variant;
    double kernel_seconds = 0;
    double per_iteration_us = 0;
};

/// A host case prepared for round-robin timing: the closure runs one solve.
struct HostRun {
    HostCase c;
    std::function<BatchSolveResult()> run;
    std::vector<double> walls;
};

/// Builds the timing closure for one host configuration. The solution
/// vector lives in the closure so repeated runs reuse the same storage.
template <typename BatchMatrix>
HostRun make_host_run(const char* format, const BatchMatrix& a,
                      const BatchVector<real_type>& b, bool fused,
                      int lockstep_width, bool pipelined)
{
    SolverSettings settings;
    settings.solver = SolverType::bicgstab;
    settings.precond = PrecondType::jacobi;
    settings.fused_kernels = fused;
    settings.lockstep_width = lockstep_width;
    settings.pipelined = pipelined;
    HostRun r;
    r.c.format = format;
    if (pipelined) {
        r.c.variant = lockstep_width > 0
                          ? "pipelined-lockstep" +
                                std::to_string(lockstep_width)
                          : "pipelined";
    } else {
        r.c.variant = lockstep_width > 0
                          ? "lockstep" + std::to_string(lockstep_width)
                          : (fused ? "fused" : "unfused");
    }
    auto x = std::make_shared<BatchVector<real_type>>(a.num_batch(),
                                                      a.rows());
    r.run = [&a, &b, settings, x] { return solve_batch(a, b, *x, settings); };
    return r;
}

/// Per-entry equivalence check of the lockstep path against the scalar
/// fused path: identical converged flags, iteration counts within one,
/// and (at equal counts) residual norms within a small relative tolerance.
template <typename BatchMatrix>
bool lockstep_matches_scalar(const BatchMatrix& a,
                             const BatchVector<real_type>& b, int width)
{
    SolverSettings settings;
    settings.solver = SolverType::bicgstab;
    settings.precond = PrecondType::jacobi;
    BatchVector<real_type> x_scalar(a.num_batch(), a.rows());
    BatchVector<real_type> x_lock(a.num_batch(), a.rows());
    const auto scalar = solve_batch(a, b, x_scalar, settings);
    settings.lockstep_width = width;
    const auto lock = solve_batch(a, b, x_lock, settings);
    for (size_type i = 0; i < a.num_batch(); ++i) {
        if (scalar.log.converged(i) != lock.log.converged(i)) {
            std::cerr << "lockstep mismatch: system " << i
                      << " converged flags differ\n";
            return false;
        }
        const int di =
            std::abs(scalar.log.iterations(i) - lock.log.iterations(i));
        if (di > 1) {
            std::cerr << "lockstep mismatch: system " << i << " iterations "
                      << scalar.log.iterations(i) << " vs "
                      << lock.log.iterations(i) << "\n";
            return false;
        }
        if (di == 0) {
            const double rs = scalar.log.residual_norm(i);
            const double rl = lock.log.residual_norm(i);
            const double scale = std::max({std::abs(rs), std::abs(rl),
                                           1e-300});
            if (std::abs(rs - rl) > 1e-6 * scale) {
                std::cerr << "lockstep mismatch: system " << i
                          << " residual " << rs << " vs " << rl << "\n";
                return false;
            }
        }
    }
    return true;
}

/// Per-entry equivalence of the pipelined variant against the classic
/// fused kernels at the same lockstep width: identical converged flags,
/// iteration counts within one, and (at equal counts) residual norms
/// within a small relative tolerance.
template <typename BatchMatrix>
bool pipelined_matches_classic(const BatchMatrix& a,
                               const BatchVector<real_type>& b, int width)
{
    SolverSettings settings;
    settings.solver = SolverType::bicgstab;
    settings.precond = PrecondType::jacobi;
    settings.fused_kernels = true;
    settings.lockstep_width = width;
    BatchVector<real_type> x_classic(a.num_batch(), a.rows());
    BatchVector<real_type> x_pipe(a.num_batch(), a.rows());
    const auto classic = solve_batch(a, b, x_classic, settings);
    settings.pipelined = true;
    const auto pipe = solve_batch(a, b, x_pipe, settings);
    for (size_type i = 0; i < a.num_batch(); ++i) {
        if (classic.log.converged(i) != pipe.log.converged(i)) {
            std::cerr << "pipelined mismatch: system " << i
                      << " converged flags differ\n";
            return false;
        }
        const int di =
            std::abs(classic.log.iterations(i) - pipe.log.iterations(i));
        if (di > 1) {
            std::cerr << "pipelined mismatch: system " << i << " iterations "
                      << classic.log.iterations(i) << " vs "
                      << pipe.log.iterations(i) << "\n";
            return false;
        }
        if (di == 0) {
            // The pipelined kernel reports the recurrence-maintained norm,
            // the classic kernel a measured one: agreement is expected to
            // rounding of the recurrence, not bit-for-bit. Converged
            // residuals sit at the cancellation floor of the recurrence,
            // so allow an absolute slack well under the stop tolerance.
            const double rc = classic.log.residual_norm(i);
            const double rp = pipe.log.residual_norm(i);
            const double scale = std::max({std::abs(rc), std::abs(rp),
                                           1e-300});
            if (std::abs(rc - rp) >
                1e-4 * scale + 1e-3 * settings.tolerance) {
                std::cerr << "pipelined mismatch: system " << i
                          << " residual " << rc << " vs " << rp << "\n";
                return false;
            }
        }
    }
    return true;
}

/// One telemetry A/B row on the csr/fused configuration: the solve with
/// the named sinks on, paired against the same solve with them off.
struct TelemetryMode {
    const char* name;
    bool metrics;
    bool trace;
    std::vector<double> off;     ///< wall seconds, obs switches off
    std::vector<double> on;      ///< wall seconds, the mode's sinks on
    std::vector<double> ratios;  ///< paired on/off ratios

    double overhead_percent() const { return 100.0 * (median(ratios) - 1.0); }
};

/// Telemetry overhead per mechanism: metrics only, trace only, both.
struct TelemetryCase {
    TelemetryMode metrics{"metrics", true, false};
    TelemetryMode trace{"trace", false, true};
    TelemetryMode both{"both", true, true};
    int pairs = 0;                   ///< paired reps per mode
    std::size_t shard_capacity = 0;  ///< one warm-up solve's span count
    std::int64_t dropped = 0;        ///< trace spans dropped over all reps

    std::array<TelemetryMode*, 3> modes() { return {&metrics, &trace, &both}; }
};

/// Live-monitor overhead A/B on the same configuration: metrics-on solves
/// with and without the background sampler (obs::Monitor) ticking. The
/// two cases are interleaved rep-by-rep so slow machine drift hits both
/// medians equally; the gated number is the sampler's MARGINAL cost on
/// top of metrics recording, which is what `--monitor` actually adds.
struct MonitorCase {
    double tick_ms = 250;
    double metrics_only_median_wall_seconds = 0;  ///< sampler stopped
    double enabled_median_wall_seconds = 0;       ///< sampler ticking
    double overhead_percent = 0;  ///< enabled vs metrics-only
    long long ticks = 0;
};

/// Extracts the csr/fused median_wall_seconds and num_systems from a
/// BENCH_solvers.json written by this bench (line-per-case layout).
bool read_baseline(const std::string& path, double& median_out,
                   long long& num_systems_out)
{
    std::ifstream in(path);
    if (!in) {
        return false;
    }
    median_out = -1;
    num_systems_out = -1;
    std::string line;
    while (std::getline(in, line)) {
        const auto num_after = [&](const char* key) {
            const auto pos = line.find(key);
            return pos == std::string::npos
                       ? std::string{}
                       : line.substr(pos + std::strlen(key));
        };
        if (const auto v = num_after("\"num_systems\": "); !v.empty()) {
            num_systems_out = std::atoll(v.c_str());
        }
        if (line.find("\"format\": \"csr\"") != std::string::npos &&
            line.find("\"variant\": \"fused\"") != std::string::npos) {
            if (const auto v = num_after("\"median_wall_seconds\": ");
                !v.empty()) {
                median_out = std::atof(v.c_str());
            }
        }
    }
    return median_out > 0 && num_systems_out > 0;
}

void write_json(const std::string& path, bool smoke, size_type num_systems,
                index_type rows, index_type nnz_per_row, int reps,
                const std::vector<HostCase>& host,
                const std::vector<DeviceCase>& devices,
                const TelemetryCase& telemetry,
                const MonitorCase& monitor)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot open " << path << " for writing\n";
        std::exit(1);
    }
    out.precision(9);
    out << "{\n";
    out << "  \"bench\": \"solvers_regression\",\n";
    out << "  \"workload\": \"bicgstab+jacobi, xgc collision batch\",\n";
    out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
    out << "  \"num_systems\": " << num_systems << ",\n";
    out << "  \"rows\": " << rows << ",\n";
    out << "  \"nnz_per_row\": " << nnz_per_row << ",\n";
    out << "  \"repetitions\": " << reps << ",\n";
    out << "  \"host\": [\n";
    for (std::size_t i = 0; i < host.size(); ++i) {
        const auto& c = host[i];
        out << "    {\"format\": \"" << c.format
            << "\", \"variant\": \"" << c.variant
            << "\", \"median_wall_seconds\": " << c.median_wall_seconds
            << ", \"mean_iterations\": " << c.mean_iterations
            << ", \"all_converged\": "
            << (c.all_converged ? "true" : "false") << "}"
            << (i + 1 < host.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"modeled\": [\n";
    for (std::size_t i = 0; i < devices.size(); ++i) {
        const auto& c = devices[i];
        out << "    {\"device\": \"" << c.device
            << "\", \"warp_size\": " << c.warp_size << ", \"format\": \""
            << c.format << "\", \"variant\": \"" << c.variant
            << "\", \"kernel_seconds\": " << c.kernel_seconds
            << ", \"per_iteration_us\": " << c.per_iteration_us << "}"
            << (i + 1 < devices.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"telemetry\": {\"method\": \"abba_median_of_ratios\""
        << ", \"pairs\": " << telemetry.pairs
        << ", \"disabled_median_wall_seconds\": " << median(telemetry.both.off)
        << ", \"enabled_median_wall_seconds\": " << median(telemetry.both.on)
        << ", \"enabled_overhead_percent\": "
        << telemetry.both.overhead_percent()
        << ", \"metrics_only_overhead_percent\": "
        << telemetry.metrics.overhead_percent()
        << ", \"trace_only_overhead_percent\": "
        << telemetry.trace.overhead_percent()
        << ", \"trace_shard_capacity\": " << telemetry.shard_capacity
        << ", \"trace_dropped\": " << telemetry.dropped << "},\n";
    out << "  \"monitor\": {\"tick_ms\": " << monitor.tick_ms
        << ", \"metrics_only_median_wall_seconds\": "
        << monitor.metrics_only_median_wall_seconds
        << ", \"enabled_median_wall_seconds\": "
        << monitor.enabled_median_wall_seconds
        << ", \"overhead_percent\": " << monitor.overhead_percent
        << ", \"ticks\": " << monitor.ticks << "}\n";
    out << "}\n";
}

}  // namespace

int main(int argc, char** argv)
{
    using namespace bsis;

    bool smoke = bench::quick_mode();
    std::string out_path = "BENCH_solvers.json";
    std::string baseline_path;
    std::string metrics_out_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--baseline") == 0 &&
                   i + 1 < argc) {
            baseline_path = argv[++i];
        } else if (std::strcmp(argv[i], "--metrics-out") == 0 &&
                   i + 1 < argc) {
            metrics_out_path = argv[++i];
        } else {
            std::cerr << "usage: bench_regression [--smoke] [--out <path>]"
                         " [--baseline <path>] [--metrics-out <path>]\n";
            return 1;
        }
    }
    const size_type num_systems = smoke ? 40 : 1000;
    const int reps = smoke ? 3 : 7;

    bench::XgcBatch batch(num_systems);
    const auto& csr = batch.a;
    const auto ell = to_ell(csr);
    const auto sellp = to_sellp(csr);
    const auto& b = batch.rhs();
    const index_type rows = csr.rows();
    const index_type width = ell.nnz_per_row();

    std::cout << "perf regression: " << num_systems << " systems, " << rows
              << " rows, " << width << " nnz/row, " << reps
              << " repetitions" << (smoke ? " (smoke)" : "") << "\n";

    // Host cases are timed round-robin -- one repetition of every case per
    // sweep -- so machine drift (frequency scaling, background load) hits
    // all variants alike instead of inflating whichever case's block it
    // lands in. An earlier committed baseline showed csr/fused slower than
    // csr/unfused for exactly that reason: each case's repetitions ran
    // back-to-back, so case ordering coupled with drift.
    std::vector<HostRun> runs;
    runs.push_back(make_host_run("csr", csr, b, true, 0, false));
    runs.push_back(make_host_run("csr", csr, b, false, 0, false));
    runs.push_back(make_host_run("ell", ell, b, true, 0, false));
    runs.push_back(make_host_run("ell", ell, b, false, 0, false));
    runs.push_back(make_host_run("sellp", sellp, b, true, 0, false));
    // SIMD batch-lockstep rows: W systems per thread over interleaved
    // layouts, against the scalar fused rows above.
    runs.push_back(make_host_run("csr", csr, b, true, 4, false));
    runs.push_back(make_host_run("csr", csr, b, true, 8, false));
    runs.push_back(make_host_run("ell", ell, b, true, 8, false));
    runs.push_back(make_host_run("sellp", sellp, b, true, 8, false));
    // Pipelined rows: one reduction point per iteration, scalar and
    // lockstep, against the classic fused rows above.
    runs.push_back(make_host_run("csr", csr, b, true, 0, true));
    runs.push_back(make_host_run("csr", csr, b, true, 8, true));
    runs.push_back(make_host_run("ell", ell, b, true, 8, true));

    // One untimed warm-up solve per case so workspace-pool allocation and
    // cache warming do not land in the first sample.
    for (auto& r : runs) {
        r.run();
    }
    for (int rep = 0; rep < reps; ++rep) {
        for (auto& r : runs) {
            const auto result = r.run();
            r.walls.push_back(result.wall_seconds);
            if (rep + 1 == reps) {
                r.c.mean_iterations = mean_iterations(result.log);
                r.c.all_converged = result.log.all_converged();
            }
        }
    }
    std::vector<HostCase> host;
    for (auto& r : runs) {
        r.c.median_wall_seconds = median(r.walls);
        host.push_back(r.c);
    }

    Table table({"format", "variant", "median_wall_s", "mean_iters",
                 "converged"});
    for (const auto& c : host) {
        table.new_row()
            .add(c.format)
            .add(c.variant)
            .add(c.median_wall_seconds, 6)
            .add(c.mean_iterations, 2)
            .add(c.all_converged ? "yes" : "no");
    }

    // Modeled kernel time on the paper's warp-32 and warp-64 devices; the
    // work profile (and thus the fused sweep structure priced by the cost
    // model) comes from the solve itself.
    std::vector<DeviceCase> devices;
    const gpusim::DeviceSpec* specs[] = {&gpusim::v100(), &gpusim::mi100()};
    SolverSettings settings;
    settings.solver = SolverType::bicgstab;
    settings.precond = PrecondType::jacobi;
    for (const auto* spec : specs) {
        SimGpuExecutor exec(*spec);
        for (int f = 0; f < 2; ++f) {
            for (const bool pipelined : {false, true}) {
                settings.pipelined = pipelined;
                BatchVector<real_type> x(csr.num_batch(), rows);
                const auto report =
                    f == 0 ? exec.solve(csr, b, x, settings)
                           : exec.solve(ell, b, x, settings);
                DeviceCase c;
                c.device = spec->name;
                c.warp_size = spec->warp_size;
                c.format = f == 0 ? "csr" : "ell";
                c.variant = pipelined ? "pipelined" : "classic";
                c.kernel_seconds = report.kernel_seconds;
                c.per_iteration_us = report.block_cost.per_iteration_us;
                devices.push_back(c);
            }
        }
    }
    settings.pipelined = false;
    Table modeled({"device", "warp", "format", "variant", "kernel_s",
                   "iter_us"});
    for (const auto& c : devices) {
        modeled.new_row()
            .add(c.device)
            .add(c.warp_size)
            .add(c.format)
            .add(c.variant)
            .add(c.kernel_seconds, 6)
            .add(c.per_iteration_us, 4);
    }

    // Telemetry A/B on the csr/fused configuration, one row per mechanism
    // (metrics only, trace only, both). Each rep times the solve with the
    // mode's sinks on and off back-to-back, alternating which runs first
    // (ABBA), and the row's overhead is the median of the paired ratios --
    // the monitor row's method below. The trace shard holds exactly one
    // warm-up solve's spans and is cleared after every traced rep, so no
    // rep times the span-drop path; a drop fails the run.
    TelemetryCase telemetry;
    {
        SolverSettings settings;
        settings.solver = SolverType::bicgstab;
        settings.precond = PrecondType::jacobi;
        settings.fused_kernels = true;
        BatchVector<real_type> x(csr.num_batch(), csr.rows());
        const auto set_sinks = [](bool metrics, bool trace) {
            obs::set_metrics_enabled(metrics);
            obs::set_trace_enabled(trace);
        };
        obs::trace().clear();
        set_sinks(true, true);
        solve_batch(csr, b, x, settings);  // untimed warm-up
        set_sinks(false, false);
        telemetry.shard_capacity = obs::trace().snapshot().size();
        telemetry.dropped += obs::trace().dropped();
        obs::trace().clear();
        obs::trace().set_shard_capacity(telemetry.shard_capacity);

        telemetry.pairs = 2 * reps;
        const auto run = [&](const TelemetryMode* mode) {
            if (mode == nullptr) {
                return solve_batch(csr, b, x, settings).wall_seconds;
            }
            set_sinks(mode->metrics, mode->trace);
            const double wall = solve_batch(csr, b, x, settings).wall_seconds;
            set_sinks(false, false);
            telemetry.dropped += obs::trace().dropped();
            obs::trace().clear();
            return wall;
        };
        for (int rep = 0; rep < telemetry.pairs; ++rep) {
            for (auto* mode : telemetry.modes()) {
                double without = 0;
                double with = 0;
                if (rep % 2 == 0) {
                    without = run(nullptr);
                    with = run(mode);
                } else {
                    with = run(mode);
                    without = run(nullptr);
                }
                mode->off.push_back(without);
                mode->on.push_back(with);
                mode->ratios.push_back(with / without);
            }
        }
        // The telemetry-live repetitions just recorded the full
        // attribution of the canonical workload (phase roofline gauges,
        // drift checks); --metrics-out hands that snapshot to
        // tools/solve_report so the perf-regression script can gate on
        // drift alarms.
        if (!metrics_out_path.empty()) {
            obs::sync_trace_dropped_gauge();
            if (obs::metrics().write_json(metrics_out_path)) {
                std::cout << "[metrics snapshot written to "
                          << metrics_out_path << "]\n";
            } else {
                std::cerr << "bench_regression: cannot write metrics to "
                          << metrics_out_path << "\n";
                return 1;
            }
        }
        obs::metrics().reset_values();
    }

    // Monitor A/B on the same configuration: metrics live (no tracing)
    // with and without the background sampler ticking at its default
    // 250 ms period -- the exact setup `--monitor` enables on the
    // examples. The reps ALTERNATE between the two cases so slow machine
    // drift (frequency scaling, a shared box) lands on both medians
    // equally; the gated number is the sampler's marginal cost on top of
    // metrics recording, which is all `--monitor` adds. It must stay
    // under the 2% envelope (gated below for non-smoke runs).
    MonitorCase monitor_case;
    {
        obs::set_metrics_enabled(true);
        obs::MonitorConfig mc;
        mc.tick_seconds = monitor_case.tick_ms / 1000.0;
        obs::Monitor monitor(obs::metrics(), mc);
        SolverSettings settings;
        settings.solver = SolverType::bicgstab;
        settings.precond = PrecondType::jacobi;
        settings.fused_kernels = true;
        BatchVector<real_type> x(csr.num_batch(), csr.rows());
        solve_batch(csr, b, x, settings);  // untimed warm-up
        // Paired statistics: each rep times the two cases back-to-back
        // and contributes one with/without ratio; the gate uses the
        // median ratio. A median-of-ratios is far less sensitive to slow
        // drift than a ratio-of-medians because both halves of a pair
        // see the same machine state, and the ABBA ordering (which case
        // runs first alternates per rep) cancels any within-pair
        // position bias. Doubled reps since this is the tightest (2%)
        // gate in the bench.
        const int pair_reps = 2 * reps;
        std::vector<double> metrics_only;
        std::vector<double> with_sampler;
        std::vector<double> ratios;
        const auto run_plain = [&] {
            return solve_batch(csr, b, x, settings).wall_seconds;
        };
        const auto run_sampled = [&] {
            monitor.start();
            const double wall = solve_batch(csr, b, x, settings).wall_seconds;
            monitor.stop();
            return wall;
        };
        for (int rep = 0; rep < pair_reps; ++rep) {
            double without = 0;
            double sampled = 0;
            if (rep % 2 == 0) {
                without = run_plain();
                sampled = run_sampled();
            } else {
                sampled = run_sampled();
                without = run_plain();
            }
            metrics_only.push_back(without);
            with_sampler.push_back(sampled);
            ratios.push_back(sampled / without);
        }
        monitor_case.metrics_only_median_wall_seconds =
            median(std::move(metrics_only));
        monitor_case.enabled_median_wall_seconds =
            median(std::move(with_sampler));
        monitor_case.overhead_percent =
            100.0 * (median(std::move(ratios)) - 1.0);
        monitor_case.ticks = monitor.ticks();
        obs::set_metrics_enabled(false);
        obs::metrics().reset_values();
    }

    std::cout << "\n=== host wall time (fused vs unfused kernels)\n\n";
    table.print(std::cout);
    std::cout << "\n=== modeled kernel time (warp 32 / warp 64)\n\n";
    modeled.print(std::cout);
    std::cout << "\ntelemetry overhead (csr/fused, " << telemetry.pairs
              << " ABBA pairs, median of ratios; trace shard "
              << telemetry.shard_capacity << " events, "
              << telemetry.dropped << " dropped)\n";
    for (const auto* mode : telemetry.modes()) {
        std::cout << "  " << mode->name << ": disabled " << median(mode->off)
                  << " s, enabled " << median(mode->on) << " s ("
                  << mode->overhead_percent() << "% when live)\n";
    }
    std::cout << "monitor overhead (csr/fused, " << monitor_case.tick_ms
              << " ms tick): metrics-only "
              << monitor_case.metrics_only_median_wall_seconds
              << " s, sampler on "
              << monitor_case.enabled_median_wall_seconds << " s ("
              << monitor_case.overhead_percent << "% marginal, "
              << monitor_case.ticks << " ticks)\n";

    write_json(out_path, smoke, num_systems, rows, width, reps, host,
               devices, telemetry, monitor_case);
    std::cout << "\n[json written to " << out_path << "]\n";

    const auto find_case = [&](const char* fmt, const char* variant) {
        for (const auto& c : host) {
            if (c.format == fmt && c.variant == variant) {
                return c.median_wall_seconds;
            }
        }
        return 0.0;
    };

    // Overhead gate against the committed baseline: the csr/fused median
    // with telemetry compiled in but DISABLED must stay within 2% of the
    // baseline median. Smoke batches are too small/noisy to gate, and a
    // baseline of a different workload size is not comparable.
    if (!baseline_path.empty() && !smoke) {
        double base_median = 0;
        long long base_systems = 0;
        if (!read_baseline(baseline_path, base_median, base_systems)) {
            std::cerr << "regression bench: cannot read baseline "
                      << baseline_path << "\n";
            return 1;
        }
        if (base_systems != static_cast<long long>(num_systems)) {
            std::cout << "baseline gate skipped: baseline has "
                      << base_systems << " systems, this run "
                      << num_systems << "\n";
        } else {
            const double cur = find_case("csr", "fused");
            const double ratio = cur / base_median;
            std::cout << "baseline gate (csr/fused, telemetry disabled): "
                      << cur << " s vs baseline " << base_median << " s ("
                      << 100.0 * (ratio - 1.0) << "%)\n";
            if (ratio > 1.02) {
                std::cerr << "regression bench: telemetry-disabled median "
                             "exceeds baseline by more than 2%\n";
                return 1;
            }
        }
    }

    // Monitor overhead gate: the sampler-on median must stay within 2%
    // of the interleaved metrics-only median -- the sampler's marginal
    // cost. Smoke batches are too small/noisy to gate.
    if (!smoke && monitor_case.overhead_percent > 2.0) {
        std::cerr << "regression bench: monitor sampler overhead "
                  << monitor_case.overhead_percent
                  << "% exceeds the 2% envelope\n";
        return 1;
    }

    // Telemetry gates: a dropped span means some rep timed the drop path
    // instead of the recording path, and with metrics and tracing both on
    // the solve may cost at most 20% more (smoke batches are too
    // small/noisy to gate the cost).
    if (telemetry.dropped > 0) {
        std::cerr << "regression bench: " << telemetry.dropped
                  << " trace spans dropped during the telemetry A/B\n";
        return 1;
    }
    const double enabled_overhead = telemetry.both.overhead_percent();
    if (!smoke && enabled_overhead > 20.0) {
        std::cerr << "regression bench: enabled telemetry overhead "
                  << enabled_overhead << "% exceeds the 20% envelope\n";
        return 1;
    }

    // Self-check: the regression harness is only useful if the numbers it
    // writes are well-formed.
    for (const auto& c : host) {
        if (!(c.median_wall_seconds > 0) || !c.all_converged) {
            std::cerr << "regression bench: bad host case " << c.format
                      << "/" << c.variant << "\n";
            return 1;
        }
    }
    // Lockstep results must match the scalar path per entry (identical
    // converged flags, iterations within one, residuals to rounding).
    if (!lockstep_matches_scalar(csr, b, 8) ||
        !lockstep_matches_scalar(ell, b, 4)) {
        std::cerr << "regression bench: lockstep/scalar mismatch\n";
        return 1;
    }
    // The pipelined variant must match the classic fused kernels per entry
    // at both the scalar and the lockstep widths.
    if (!pipelined_matches_classic(csr, b, 0) ||
        !pipelined_matches_classic(csr, b, 8) ||
        !pipelined_matches_classic(ell, b, 8)) {
        std::cerr << "regression bench: pipelined/classic mismatch\n";
        return 1;
    }
    // The modeled per-iteration cost must drop for the pipelined traced
    // kernel on every device/format pair (fewer reduction rounds).
    for (const auto& c : devices) {
        if (c.variant != "pipelined") {
            continue;
        }
        for (const auto& classic : devices) {
            if (classic.variant == "classic" && classic.device == c.device &&
                classic.format == c.format &&
                !(c.per_iteration_us < classic.per_iteration_us)) {
                std::cerr << "regression bench: pipelined modeled iteration "
                             "cost does not drop on "
                          << c.device << "/" << c.format << "\n";
                return 1;
            }
        }
    }
    // And the point of the lockstep path is to beat the scalar fused path
    // on the full-size batch (smoke batches are too small/noisy to gate).
    const double scalar_fused = find_case("csr", "fused");
    const double lockstep_best = std::min(find_case("csr", "lockstep4"),
                                          find_case("csr", "lockstep8"));
    std::cout << "\nlockstep best (csr, W>=4) " << lockstep_best
              << " s vs scalar fused " << scalar_fused << " s  ("
              << (scalar_fused > 0 ? scalar_fused / lockstep_best : 0.0)
              << "x)\n";
    if (!smoke && !(lockstep_best < scalar_fused)) {
        std::cerr << "regression bench: lockstep (W>=4) is not faster than "
                     "the scalar fused path\n";
        return 1;
    }
    // The point of pipelining on the host is fewer, fatter sweeps: the
    // pipelined lockstep8 row must beat classic lockstep8 on the full-size
    // workload (smoke batches are too small/noisy to gate).
    const double classic_l8 = find_case("csr", "lockstep8");
    const double pipelined_l8 = find_case("csr", "pipelined-lockstep8");
    std::cout << "pipelined lockstep8 (csr) " << pipelined_l8
              << " s vs classic lockstep8 " << classic_l8 << " s  ("
              << (pipelined_l8 > 0 ? classic_l8 / pipelined_l8 : 0.0)
              << "x)\n";
    if (!smoke && !(pipelined_l8 < classic_l8)) {
        std::cerr << "regression bench: pipelined lockstep8 is not faster "
                     "than classic lockstep8\n";
        return 1;
    }
    return 0;
}
