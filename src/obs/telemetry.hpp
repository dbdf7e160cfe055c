// Process-wide telemetry switchboard.
//
// The solver hot paths are compiled with telemetry unconditionally present
// but record nothing unless enabled: every record site is gated by an
// inlined relaxed atomic load (`metrics_enabled()` / `trace_enabled()`),
// so the disabled cost is one predictable branch. bench_regression gates
// the disabled cost against its committed baseline and the enabled cost
// against paired telemetry-off reps (see PhaseTimer). The global
// MetricsRegistry and TraceSession singletons live for the process, and
// each thread keeps its own PhaseTally; examples and apps flip the flags
// from `--metrics-json=` / `--trace=` CLI options.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"
#include "util/isa.hpp"

namespace bsis::obs {

namespace detail {
inline std::atomic<bool> g_metrics_enabled{false};
inline std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

inline bool metrics_enabled()
{
    return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}

inline bool trace_enabled()
{
    return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// True when any telemetry sink is on (cheap pre-check for sites that
/// would otherwise compute a value just to record it).
inline bool enabled() { return metrics_enabled() || trace_enabled(); }

void set_metrics_enabled(bool on);
void set_trace_enabled(bool on);

/// The process-wide registries. Construction is thread-safe; recording
/// into them is only meaningful while the matching flag is on.
MetricsRegistry& metrics();
TraceSession& trace();

/// Mirrors the global TraceSession's span-drop count into the
/// `obs.trace.dropped` gauge of the global registry, so a truncated trace
/// is visible in the metrics snapshot. Called on the cold paths that
/// publish snapshots (record_solve_metrics, ObsCli::flush).
void sync_trace_dropped_gauge();

/// RAII span against the global TraceSession; no-op when tracing is off
/// at construction time (the end is driven by the same decision, so a
/// flag flip mid-span cannot unbalance the per-thread stack).
class ScopedSpan {
public:
    BSIS_INLINE_ONLY explicit ScopedSpan(const char* name,
                                         const char* cat = "solver",
                                         std::int64_t arg = -1)
    {
        if (trace_enabled()) {
            active_ = true;
            trace().begin(name, cat, arg);
        }
    }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    BSIS_INLINE_ONLY ~ScopedSpan()
    {
        if (active_) {
            trace().end();
        }
    }

private:
    bool active_ = false;
};

/// Runs `f` under a span named `name` (category "kernel"). The span form
/// the solver kernels use to tag one phase -- an SpMV sweep, a reduction,
/// a fused vector update -- without restructuring the kernel body; when
/// tracing is off this compiles down to the call plus one relaxed load.
template <typename F>
inline decltype(auto) traced(const char* name, F&& f)
{
    ScopedSpan span(name, "kernel");
    return std::forward<F>(f)();
}

/// Calling thread's consumed CPU nanoseconds, or -1 where no per-thread
/// CPU clock exists. Immune to scheduler preemption, which is exactly
/// what drift detection needs on a loaded machine (see PhaseTotals).
inline std::int64_t thread_cpu_ns()
{
#if defined(CLOCK_THREAD_CPUTIME_ID)
    timespec ts;
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
        return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 +
               ts.tv_nsec;
    }
#endif
    return -1;
}

/// RAII phase timer against the calling thread's PhaseTally (the
/// measurement half of the attribution layer). Given a `span_name`, the
/// same two steady_clock stamps also become one complete "kernel" trace
/// event, so the trace and the phase tally agree to rounding. Each sink
/// is decided once at construction, so a flag flip mid-span neither drops
/// nor half-records it; with both sinks off the cost is two relaxed
/// loads.
///
/// Enabled cost per span, measured single-threaded with an empty body on
/// a shared 4-vCPU Xeon VM: metrics and trace 115-165 ns, metrics only
/// 105-140 ns, trace only 75-105 ns (630-1000, 540-860 and 90-130 ns
/// when every span read the thread-CPU clock twice and the trace took
/// its own stamps); off 1-2 ns. It is two steady_clock reads, plain adds
/// to the thread's own tally, one uncontended shard lock for the trace
/// event, and on one span in `cpu_sample_period` two thread-CPU clock
/// reads. Where no thread-CPU clock exists the sampled
/// spans record their wall time on both axes.
class PhaseTimer {
public:
    BSIS_INLINE_ONLY explicit PhaseTimer(Phase phase,
                                         const char* span_name = nullptr)
        : phase_(phase),
          name_(span_name),
          metrics_(metrics_enabled()),
          trace_(span_name != nullptr && trace_enabled())
    {
        if (metrics_ || trace_) {
            start();
        }
    }

    PhaseTimer(const PhaseTimer&) = delete;
    PhaseTimer& operator=(const PhaseTimer&) = delete;

    BSIS_INLINE_ONLY ~PhaseTimer()
    {
        if (metrics_ || trace_) {
            finish();
        }
    }

private:
    // Out of line so the kernels inline only the flag checks.
    void start();
    void finish();

    Phase phase_;
    const char* name_;
    bool metrics_;
    bool trace_;
    bool sampled_ = false;
    std::int64_t start_cpu_ = -1;
    std::chrono::steady_clock::time_point start_;
};

/// Phase-kind form of traced(): the span is still emitted under `name`
/// for the trace timeline, and the elapsed time is additionally tallied
/// under `phase` in the calling thread's PhaseTally so the attribution
/// layer can join it with the work ledger. Both come from one pair of wall
/// stamps (see PhaseTimer). All solver-kernel spans use this form since
/// the attribution PR.
template <typename F>
inline decltype(auto) traced(Phase phase, const char* name, F&& f)
{
    PhaseTimer timer(phase, name);
    return std::forward<F>(f)();
}

/// Shorthand using the phase's canonical span name.
template <typename F>
inline decltype(auto) traced(Phase phase, F&& f)
{
    return traced(phase, phase_name(phase), std::forward<F>(f));
}

}  // namespace bsis::obs
