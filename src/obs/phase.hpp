// Phase taxonomy and per-thread phase-time accumulation (the measurement
// half of the performance-attribution layer; see obs/attribution.hpp for
// the modeled half).
//
// Every `obs::traced` span in the solver kernels names one of a fixed,
// small set of phase kinds -- an SpMV sweep, a preconditioner
// application, a block-wide reduction, a streaming vector update. The
// accumulator tallies wall nanoseconds, call counts and a deterministic
// 1-in-`cpu_sample_period` sample of thread-CPU nanoseconds per kind into
// per-thread cache-line-aligned shards of relaxed atomics, so the hot
// loops never contend and never take a lock; totals() sums the shards.
// Recording is gated by `obs::metrics_enabled()` (see obs/telemetry.hpp):
// disabled cost is one relaxed load per span.
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/sharding.hpp"

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

/// Point-in-time sum over every shard: wall seconds, span count and the
/// thread-CPU sample per phase kind. Subtraction gives the delta
/// attributable to one solve. Wall time is what bandwidth attribution
/// wants (achieved GB/s is a wall-clock fact); CPU time is what drift
/// detection wants -- a scheduler preemption landing inside one span
/// inflates its wall share arbitrarily but leaves its CPU share intact,
/// so share comparisons against the model stay meaningful on a loaded
/// machine.
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

/// Per-thread sharded phase-time tally. add() is wait-free (relaxed
/// fetch_adds on the calling thread's own cache line: two per span, four
/// on a sampled one); totals() sums the shards with relaxed loads --
/// callers measure before/after deltas around a solve, so in-flight
/// recording only blurs a delta by the spans racing the snapshot.
class PhaseAccumulator {
public:
    /// Whether the calling thread's next span of `phase` reads the
    /// thread-CPU clock: its first, then every `cpu_sample_period`-th.
    bool sample_next(Phase phase)
    {
        const auto& shard = shards_.local();
        return shard.calls[static_cast<int>(phase)].load(
                   std::memory_order_relaxed) %
                   cpu_sample_period ==
               0;
    }

    /// Tallies one span; `cpu_ns < 0` marks it as not sampled.
    void add(Phase phase, std::int64_t wall_ns, std::int64_t cpu_ns)
    {
        auto& shard = shards_.local();
        const auto p = static_cast<int>(phase);
        shard.ns[p].fetch_add(wall_ns, std::memory_order_relaxed);
        shard.calls[p].fetch_add(1, std::memory_order_relaxed);
        if (cpu_ns >= 0) {
            shard.cpu_ns[p].fetch_add(cpu_ns, std::memory_order_relaxed);
            shard.sampled[p].fetch_add(1, std::memory_order_relaxed);
        }
    }

    PhaseTotals totals() const
    {
        PhaseTotals t;
        shards_.for_each([&](const Shard& shard) {
            for (int p = 0; p < phase_count; ++p) {
                t.seconds[p] +=
                    1e-9 * static_cast<double>(
                               shard.ns[p].load(std::memory_order_relaxed));
                t.calls[p] +=
                    shard.calls[p].load(std::memory_order_relaxed);
                t.sampled_cpu_seconds[p] +=
                    1e-9 *
                    static_cast<double>(
                        shard.cpu_ns[p].load(std::memory_order_relaxed));
                t.sampled_calls[p] +=
                    shard.sampled[p].load(std::memory_order_relaxed);
            }
        });
        t.estimate_cpu();
        return t;
    }

    /// Zeroes every shard, which also restarts each thread's CPU sample
    /// at its next span (tests; not needed for delta-based use).
    void reset()
    {
        shards_.for_each([](Shard& shard) {
            for (int p = 0; p < phase_count; ++p) {
                shard.ns[p].store(0, std::memory_order_relaxed);
                shard.cpu_ns[p].store(0, std::memory_order_relaxed);
                shard.calls[p].store(0, std::memory_order_relaxed);
                shard.sampled[p].store(0, std::memory_order_relaxed);
            }
        });
    }

private:
    struct alignas(64) Shard {
        int index = 0;  ///< registration order (required by PerThreadShards)
        std::atomic<std::int64_t> ns[phase_count] = {};
        std::atomic<std::int64_t> cpu_ns[phase_count] = {};
        std::atomic<std::int64_t> calls[phase_count] = {};
        std::atomic<std::int64_t> sampled[phase_count] = {};
    };

    PerThreadShards<Shard> shards_;
};

/// The process-wide accumulator every `obs::traced` span records into
/// while metrics are enabled.
PhaseAccumulator& phase_times();

}  // namespace bsis::obs
