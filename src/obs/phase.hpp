// Phase taxonomy and per-thread phase-time tallies (the measurement half
// of the performance-attribution layer; see obs/attribution.hpp for the
// modeled half).
//
// Every `obs::traced` span in the solver kernels names one of a fixed,
// small set of phase kinds -- an SpMV sweep, a preconditioner
// application, a block-wide reduction, a streaming vector update. The
// recording thread's own PhaseTally counts wall nanoseconds, calls and a
// deterministic 1-in-`cpu_sample_period` sample of thread-CPU nanoseconds
// per kind; a solve sums its worker threads' deltas into its own
// PhaseTotals. Recording is gated by `obs::metrics_enabled()` (see
// obs/telemetry.hpp): disabled cost is one relaxed load per span.
#pragma once

#include <cstdint>

#include "util/isa.hpp"

namespace bsis::obs {

/// Kernel phase kinds, matching the span names used since the telemetry
/// PR ("spmv", "precond_apply", "reduction", "update"). `other` collects
/// spans that do not map onto the ledger (assembly, logging).
enum class Phase : int {
    spmv = 0,
    precond = 1,
    reduction = 2,
    update = 3,
    other = 4,
};

inline constexpr int phase_count = 5;

/// Canonical span name of a phase (static storage; safe as a TraceEvent
/// name).
inline const char* phase_name(Phase phase)
{
    switch (phase) {
    case Phase::spmv:
        return "spmv";
    case Phase::precond:
        return "precond_apply";
    case Phase::reduction:
        return "reduction";
    case Phase::update:
        return "update";
    case Phase::other:
        return "other";
    }
    return "other";
}

/// Spans of one phase kind on one thread read the thread-CPU clock only
/// on every `cpu_sample_period`-th call, the first included. That clock
/// is a syscall on Linux (~300 ns per read) where a steady_clock read is
/// a vDSO call (~35 ns), so sampling it is what makes an enabled span
/// cheap next to a microsecond-scale kernel.
inline constexpr std::int64_t cpu_sample_period = 16;

/// Wall seconds, span count and the thread-CPU sample per phase kind, as
/// one solve (BatchSolveResult::phases) or one thread's tally reports
/// them; subtracting two readings gives the spans between them. Wall time
/// is what bandwidth attribution wants (achieved GB/s is a wall-clock
/// fact); CPU time is what drift detection wants -- a scheduler
/// preemption landing inside one span inflates its wall share arbitrarily
/// but leaves its CPU share intact, so share comparisons against the
/// model stay meaningful on a loaded machine.
///
/// A solve's totals sum over its worker threads, whose spans each run
/// one after another inside the solve's wall window, so their seconds add
/// up to at most the wall time times the solve's team size. The achieved
/// bandwidth attributed from them is bytes per thread-second, so on a
/// multi-thread solve its `peak_fraction` against the node-wide host peak
/// reads low by up to the team size.
///
/// `cpu_seconds` is estimated from the sample: sampled CPU seconds x
/// calls / sampled calls, exact when every span was sampled. Each sample
/// is still thread-CPU time, so the estimate inherits the preemption
/// immunity. A window without any sample of a phase falls back to that
/// phase's wall seconds.
struct PhaseTotals {
    double seconds[phase_count] = {};
    double cpu_seconds[phase_count] = {};
    std::int64_t calls[phase_count] = {};
    double sampled_cpu_seconds[phase_count] = {};
    std::int64_t sampled_calls[phase_count] = {};

    double total_seconds() const
    {
        double sum = 0;
        for (const double s : seconds) {
            sum += s;
        }
        return sum;
    }

    double total_cpu_seconds() const
    {
        double sum = 0;
        for (const double s : cpu_seconds) {
            sum += s;
        }
        return sum;
    }

    PhaseTotals operator-(const PhaseTotals& earlier) const
    {
        PhaseTotals d;
        for (int p = 0; p < phase_count; ++p) {
            d.seconds[p] = seconds[p] - earlier.seconds[p];
            d.calls[p] = calls[p] - earlier.calls[p];
            d.sampled_cpu_seconds[p] =
                sampled_cpu_seconds[p] - earlier.sampled_cpu_seconds[p];
            d.sampled_calls[p] = sampled_calls[p] - earlier.sampled_calls[p];
        }
        d.estimate_cpu();
        return d;
    }

    /// Fills `cpu_seconds` from the sampled fields (see above).
    void estimate_cpu()
    {
        for (int p = 0; p < phase_count; ++p) {
            cpu_seconds[p] =
                sampled_calls[p] > 0
                    ? sampled_cpu_seconds[p] *
                          static_cast<double>(calls[p]) /
                          static_cast<double>(sampled_calls[p])
                    : seconds[p];
        }
    }
};

/// One thread's running phase tally: wall and sampled thread-CPU
/// nanoseconds and span counts per phase kind. Each thread owns one (see
/// thread_phase_tally()) and is the only one to read or write it, so
/// recording takes no lock and no atomic. A solve takes each of its worker
/// threads' tally before and after that thread's share of the work and
/// sums the differences (add_delta), so its totals never include a span
/// of a concurrent solve.
struct PhaseTally {
    std::int64_t ns[phase_count] = {};
    std::int64_t cpu_ns[phase_count] = {};
    std::int64_t calls[phase_count] = {};
    std::int64_t sampled[phase_count] = {};

    /// Whether the next span of `phase` reads the thread-CPU clock: the
    /// thread's first, then every `cpu_sample_period`-th.
    bool sample_next(Phase phase) const
    {
        return calls[static_cast<int>(phase)] % cpu_sample_period == 0;
    }

    /// Tallies one span; `span_cpu_ns < 0` marks it as not sampled.
    void add(Phase phase, std::int64_t wall_ns, std::int64_t span_cpu_ns)
    {
        const auto p = static_cast<int>(phase);
        ns[p] += wall_ns;
        ++calls[p];
        if (span_cpu_ns >= 0) {
            cpu_ns[p] += span_cpu_ns;
            ++sampled[p];
        }
    }

    /// Adds `later - earlier`, two readings of one thread's tally.
    BSIS_INLINE_ONLY void add_delta(const PhaseTally& later,
                                    const PhaseTally& earlier)
    {
        for (int p = 0; p < phase_count; ++p) {
            ns[p] += later.ns[p] - earlier.ns[p];
            cpu_ns[p] += later.cpu_ns[p] - earlier.cpu_ns[p];
            calls[p] += later.calls[p] - earlier.calls[p];
            sampled[p] += later.sampled[p] - earlier.sampled[p];
        }
    }

    PhaseTotals totals() const
    {
        PhaseTotals t;
        for (int p = 0; p < phase_count; ++p) {
            t.seconds[p] = 1e-9 * static_cast<double>(ns[p]);
            t.calls[p] = calls[p];
            t.sampled_cpu_seconds[p] = 1e-9 * static_cast<double>(cpu_ns[p]);
            t.sampled_calls[p] = sampled[p];
        }
        t.estimate_cpu();
        return t;
    }

    /// Zeroes the tally, which also restarts its CPU sample pattern.
    void reset() { *this = PhaseTally{}; }
};

/// The calling thread's tally, which every `obs::traced` phase span on
/// that thread records into while metrics are enabled.
PhaseTally& thread_phase_tally();

}  // namespace bsis::obs
