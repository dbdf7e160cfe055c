#include "obs/telemetry.hpp"

namespace bsis::obs {

void set_metrics_enabled(bool on)
{
    detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

void set_trace_enabled(bool on)
{
    detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

MetricsRegistry& metrics()
{
    static MetricsRegistry registry;
    return registry;
}

TraceSession& trace()
{
    static TraceSession session;
    return session;
}

namespace {
thread_local PhaseTally tally;
}  // namespace

PhaseTally& thread_phase_tally() { return tally; }

void PhaseTimer::start()
{
    if (metrics_ && tally.sample_next(phase_)) {
        start_cpu_ = thread_cpu_ns();
        sampled_ = true;
    }
    start_ = std::chrono::steady_clock::now();
}

void PhaseTimer::finish()
{
    const auto end = std::chrono::steady_clock::now();
    if (metrics_) {
        const auto ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
                .count();
        std::int64_t cpu = -1;
        if (sampled_) {
            cpu = start_cpu_ >= 0 ? thread_cpu_ns() - start_cpu_ : ns;
        }
        tally.add(phase_, ns, cpu);
    }
    if (trace_) {
        trace().emit_host(name_, "kernel", start_, end);
    }
}

void sync_trace_dropped_gauge()
{
    metrics().set_named("obs.trace.dropped",
                        static_cast<double>(trace().dropped()));
}

}  // namespace bsis::obs
