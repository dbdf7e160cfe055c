// TraceSession: phase-level begin/end spans serialized as Chrome
// trace-event JSON (loadable in Perfetto / chrome://tracing).
//
// Host-side spans nest per thread through a thread-local open-span stack:
// begin() pushes, end() pops and materializes one complete ("ph": "X")
// event with the span's start timestamp and duration. Leaf spans that
// already hold their own wall stamps (the kernel phase spans, see
// obs::PhaseTimer) skip the stack: emit_host() records them as one
// complete event under a single shard lock. Modeled timelines
// (the gpusim wave scheduler's per-block schedule) are emitted directly
// with emit_complete() under a separate pid, so the host wall-clock
// timeline and the modeled device timeline render as two process tracks.
//
// Events are staged in per-thread cache-line-aligned shards (the
// BatchLogStage pattern); the buffer is bounded -- once a shard reaches
// the configured capacity further events are dropped and counted, never
// reallocated without limit. All record sites are expected to be gated by
// `obs::trace_enabled()` (see obs/telemetry.hpp).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/sharding.hpp"

namespace bsis::obs {

/// One complete span. `name` and `cat` must be string literals (or other
/// storage outliving the session) -- the hot path never copies strings.
struct TraceEvent {
    const char* name = "";
    const char* cat = "";
    double ts_us = 0;   ///< start, microseconds since session start
    double dur_us = 0;  ///< duration in microseconds
    int pid = 0;        ///< host_pid or device_pid
    int tid = 0;        ///< host: thread registration order; device: slot
    std::int64_t arg = -1;  ///< optional "system"/"block" id; -1 = none
};

class TraceSession {
public:
    static constexpr int host_pid = 1;    ///< wall-clock host spans
    static constexpr int device_pid = 2;  ///< modeled gpusim timeline

    TraceSession();

    /// Opens a span on the calling thread; must be matched by end().
    void begin(const char* name, const char* cat, std::int64_t arg = -1);

    /// Closes the innermost open span of the calling thread.
    void end();

    /// Emits a host span the caller timed itself, on the calling thread's
    /// track; `start`/`end` are steady_clock stamps.
    void emit_host(const char* name, const char* cat,
                   std::chrono::steady_clock::time_point start,
                   std::chrono::steady_clock::time_point end);

    /// Emits an already-timed span (modeled timelines; `ts_us`/`dur_us`
    /// need not relate to the session's wall clock).
    void emit_complete(const char* name, const char* cat, int pid, int tid,
                       double ts_us, double dur_us, std::int64_t arg = -1);

    /// Microseconds since the session epoch (construction or last clear).
    double now_us() const;

    /// Drops all recorded events and re-arms the epoch; per-thread shard
    /// registrations survive.
    void clear();

    /// Caps the events retained PER SHARD (thread); further events are
    /// dropped and counted. Applies to shards from the next event on.
    void set_shard_capacity(std::size_t max_events);
    std::size_t shard_capacity() const
    {
        return shard_capacity_.load(std::memory_order_relaxed);
    }

    std::int64_t dropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

    /// Merged copy of every shard's events (unsorted across shards).
    std::vector<TraceEvent> snapshot() const;

    /// The Chrome trace-event JSON document (events sorted by pid, tid,
    /// then timestamp).
    std::string chrome_trace_json() const;
    bool write_chrome_trace(const std::string& path) const;

private:
    struct OpenSpan {
        const char* name;
        const char* cat;
        double ts_us;
        std::int64_t arg;
    };
    struct alignas(64) Shard {
        int index = 0;  ///< registration order (required by PerThreadShards)
        mutable std::mutex mutex;
        std::vector<TraceEvent> events;
        std::vector<OpenSpan> stack;
    };

    void push_event(Shard& shard, const TraceEvent& event);

    /// Microseconds from the session epoch to `t`.
    double since_epoch_us(std::chrono::steady_clock::time_point t) const;

    /// steady_clock nanoseconds of the epoch; atomic because clear()
    /// re-arms it while recording threads read it without a lock.
    std::atomic<std::int64_t> epoch_ns_;
    std::atomic<std::size_t> shard_capacity_{1u << 20};
    std::atomic<std::int64_t> dropped_{0};
    PerThreadShards<Shard> shards_;
};

}  // namespace bsis::obs
