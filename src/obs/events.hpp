// Structured JSON-lines event log for the live-monitoring layer.
//
// Metrics answer "how much"; the event log answers "what happened when":
// one JSON object per line, append-only, with wall-clock timestamps, so a
// long-running campaign leaves an audit trail that `tail -f`, jq, or a
// log shipper can consume while the process is still running. Emitters
// are the cold paths only -- solve start/end, flight-recorder captures,
// drift alarms, alert transitions -- so a solve never blocks on the log's
// mutex from a hot loop.
//
// The file is size-capped with rotation: when the active file exceeds the
// byte cap it is renamed to `<path>.1` (shifting older rotations up, the
// oldest dropped) and a fresh file is started, so an unattended campaign
// cannot fill the disk. Like the other obs sinks, emission is gated by a
// process-wide atomic (`events_enabled()`): with no log open the cost of
// an emit site is one relaxed load.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <mutex>
#include <string>
#include <vector>

namespace bsis::obs {

/// One key/value field of an event. Build with the field() overloads;
/// string values are JSON-escaped at emission.
struct EventField {
    enum class Type { string, number, integer, boolean };
    std::string key;
    Type type = Type::number;
    std::string str;
    double num = 0;
    std::int64_t integer = 0;
    bool boolean = false;
};

inline EventField field(std::string key, std::string value)
{
    EventField f;
    f.key = std::move(key);
    f.type = EventField::Type::string;
    f.str = std::move(value);
    return f;
}

inline EventField field(std::string key, const char* value)
{
    return field(std::move(key), std::string(value));
}

inline EventField field(std::string key, double value)
{
    EventField f;
    f.key = std::move(key);
    f.type = EventField::Type::number;
    f.num = value;
    return f;
}

inline EventField field(std::string key, std::int64_t value)
{
    EventField f;
    f.key = std::move(key);
    f.type = EventField::Type::integer;
    f.integer = value;
    return f;
}

inline EventField field(std::string key, int value)
{
    return field(std::move(key), static_cast<std::int64_t>(value));
}

inline EventField field(std::string key, bool value)
{
    EventField f;
    f.key = std::move(key);
    f.type = EventField::Type::boolean;
    f.boolean = value;
    return f;
}

/// Append-only JSON-lines sink with size-capped rotation.
class EventLog {
public:
    /// Rotation defaults: 4 MiB per file, active file + 3 rotations.
    static constexpr std::int64_t default_max_bytes = 4 << 20;
    static constexpr int default_max_rotations = 3;

    EventLog() = default;
    ~EventLog();

    EventLog(const EventLog&) = delete;
    EventLog& operator=(const EventLog&) = delete;

    /// Opens (appending) the active file. Returns false when the file
    /// cannot be opened; the log then stays inactive.
    bool open(const std::string& path,
              std::int64_t max_bytes = default_max_bytes,
              int max_rotations = default_max_rotations);

    /// Flushes and closes; emit() becomes a no-op again.
    void close();

    /// Appends one event line: {"ts": <unix seconds>, "event": <kind>,
    /// <fields...>}. Thread-safe; no-op while inactive. Non-finite
    /// numbers are written as json_number writes them.
    void emit(const std::string& kind,
              std::initializer_list<EventField> fields);
    /// The same for a field list built at run time. The braced-list
    /// overload forwards here out of line, so its call sites (hot
    /// translation units among them) stay a plain call.
    void emit(const std::string& kind,
              const std::vector<EventField>& fields);

    /// Events written (including into rotated-away files) since open().
    std::int64_t emitted() const;

    /// Rotations performed since open().
    int rotations() const;

private:
    void rotate_locked();

    mutable std::mutex mutex_;
    std::string path_;
    std::int64_t max_bytes_ = default_max_bytes;
    int max_rotations_ = default_max_rotations;
    std::int64_t bytes_ = 0;
    std::int64_t emitted_ = 0;
    int rotations_ = 0;
    std::ofstream out_;
};

namespace detail {
inline std::atomic<bool> g_events_enabled{false};
}  // namespace detail

/// True while the process-wide event log is open; emit sites gate on this
/// one relaxed load.
inline bool events_enabled()
{
    return detail::g_events_enabled.load(std::memory_order_relaxed);
}

/// The process-wide event log the solver/forensics/monitor hooks write
/// to. Open/close it through open_events()/close_events() so the enabled
/// flag stays in sync.
EventLog& events();

/// Opens the global event log (closing any previous file) and flips
/// events_enabled(). Returns false and leaves events disabled on failure.
bool open_events(const std::string& path,
                 std::int64_t max_bytes = EventLog::default_max_bytes,
                 int max_rotations = EventLog::default_max_rotations);

/// Closes the global event log and clears events_enabled().
void close_events();

/// Unix wall-clock seconds (sub-second precision) -- the event timestamp
/// base, also used by the monitor's sampler.
double unix_seconds();

}  // namespace bsis::obs
