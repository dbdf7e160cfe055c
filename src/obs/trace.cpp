#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"

namespace bsis::obs {

namespace {

std::int64_t steady_ns(std::chrono::steady_clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
}

}  // namespace

TraceSession::TraceSession()
    : epoch_ns_(steady_ns(std::chrono::steady_clock::now()))
{
}

double TraceSession::since_epoch_us(
    std::chrono::steady_clock::time_point t) const
{
    return 1e-3 * static_cast<double>(
                      steady_ns(t) -
                      epoch_ns_.load(std::memory_order_relaxed));
}

double TraceSession::now_us() const
{
    return since_epoch_us(std::chrono::steady_clock::now());
}

void TraceSession::begin(const char* name, const char* cat, std::int64_t arg)
{
    auto& shard = shards_.local();
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.stack.push_back({name, cat, now_us(), arg});
}

void TraceSession::end()
{
    auto& shard = shards_.local();
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.stack.empty()) {
        return;  // unmatched end(): ignore rather than corrupt the stack
    }
    const OpenSpan span = shard.stack.back();
    shard.stack.pop_back();
    TraceEvent event;
    event.name = span.name;
    event.cat = span.cat;
    event.ts_us = span.ts_us;
    event.dur_us = now_us() - span.ts_us;
    event.pid = host_pid;
    event.tid = shard.index;
    event.arg = span.arg;
    push_event(shard, event);
}

void TraceSession::emit_host(const char* name, const char* cat,
                             std::chrono::steady_clock::time_point start,
                             std::chrono::steady_clock::time_point end)
{
    const double dur_us =
        std::chrono::duration<double, std::micro>(end - start).count();
    auto& shard = shards_.local();
    std::lock_guard<std::mutex> lock(shard.mutex);
    push_event(shard, {name, cat, since_epoch_us(start), dur_us, host_pid,
                       shard.index});
}

void TraceSession::emit_complete(const char* name, const char* cat, int pid,
                                 int tid, double ts_us, double dur_us,
                                 std::int64_t arg)
{
    auto& shard = shards_.local();
    std::lock_guard<std::mutex> lock(shard.mutex);
    push_event(shard, {name, cat, ts_us, dur_us, pid, tid, arg});
}

void TraceSession::push_event(Shard& shard, const TraceEvent& event)
{
    if (shard.events.size() >=
        shard_capacity_.load(std::memory_order_relaxed)) {
        if (dropped_.fetch_add(1, std::memory_order_relaxed) == 0) {
            // Warn once per session so a truncated trace never passes
            // silently; the running total is surfaced as the
            // `obs.trace.dropped` gauge in the metrics snapshot.
            std::fprintf(stderr,
                         "[bsis.obs] trace shard capacity (%zu events) "
                         "reached; further spans will be dropped and "
                         "counted\n",
                         shard_capacity_.load(std::memory_order_relaxed));
        }
        return;
    }
    shard.events.push_back(event);
}

void TraceSession::clear()
{
    shards_.for_each([](Shard& shard) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.events.clear();
        shard.stack.clear();
    });
    dropped_.store(0, std::memory_order_relaxed);
    epoch_ns_.store(steady_ns(std::chrono::steady_clock::now()),
                    std::memory_order_relaxed);
}

void TraceSession::set_shard_capacity(std::size_t max_events)
{
    shard_capacity_.store(max_events, std::memory_order_relaxed);
}

std::vector<TraceEvent> TraceSession::snapshot() const
{
    std::vector<TraceEvent> events;
    shards_.for_each([&](const Shard& shard) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        events.insert(events.end(), shard.events.begin(),
                      shard.events.end());
    });
    return events;
}

std::string TraceSession::chrome_trace_json() const
{
    auto events = snapshot();
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                         if (a.pid != b.pid) {
                             return a.pid < b.pid;
                         }
                         if (a.tid != b.tid) {
                             return a.tid < b.tid;
                         }
                         if (a.ts_us != b.ts_us) {
                             return a.ts_us < b.ts_us;
                         }
                         // Ties: the longer span is the enclosing one.
                         return a.dur_us > b.dur_us;
                     });
    std::ostringstream os;
    os.precision(12);
    os << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < events.size(); ++i) {
        const auto& e = events[i];
        os << (i == 0 ? "\n" : ",\n") << "  {\"name\": \"";
        json_escape(os, e.name);
        os << "\", \"cat\": \"";
        json_escape(os, e.cat);
        os << "\", \"ph\": \"X\", \"ts\": " << e.ts_us
           << ", \"dur\": " << e.dur_us << ", \"pid\": " << e.pid
           << ", \"tid\": " << e.tid;
        if (e.arg >= 0) {
            os << ", \"args\": {\"id\": " << e.arg << "}";
        }
        os << "}";
    }
    os << "\n], \"displayTimeUnit\": \"ms\"}\n";
    return os.str();
}

bool TraceSession::write_chrome_trace(const std::string& path) const
{
    std::ofstream out(path);
    if (!out) {
        return false;
    }
    out << chrome_trace_json();
    return static_cast<bool>(out);
}

}  // namespace bsis::obs
