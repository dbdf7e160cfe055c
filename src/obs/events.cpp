#include "obs/events.hpp"

#include <chrono>
#include <filesystem>
#include <sstream>

#include "obs/json.hpp"

namespace bsis::obs {

namespace fs = std::filesystem;

double unix_seconds()
{
    return std::chrono::duration<double>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

EventLog::~EventLog() { close(); }

bool EventLog::open(const std::string& path, std::int64_t max_bytes,
                    int max_rotations)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (out_.is_open()) {
        out_.close();
    }
    const auto parent = fs::path(path).parent_path();
    std::error_code ec;
    if (!parent.empty()) {
        fs::create_directories(parent, ec);  // best effort
    }
    out_.open(path, std::ios::app);
    if (!out_) {
        path_.clear();
        return false;
    }
    path_ = path;
    max_bytes_ = max_bytes > 0 ? max_bytes : default_max_bytes;
    max_rotations_ = max_rotations >= 0 ? max_rotations
                                        : default_max_rotations;
    bytes_ = static_cast<std::int64_t>(out_.tellp());
    emitted_ = 0;
    rotations_ = 0;
    return true;
}

void EventLog::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (out_.is_open()) {
        out_.close();
    }
    path_.clear();
}

std::int64_t EventLog::emitted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return emitted_;
}

int EventLog::rotations() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return rotations_;
}

void EventLog::rotate_locked()
{
    out_.close();
    std::error_code ec;
    if (max_rotations_ == 0) {
        fs::remove(path_, ec);
    } else {
        // Shift <path>.(n-1) -> <path>.n, oldest dropped, then the active
        // file becomes <path>.1.
        fs::remove(path_ + "." + std::to_string(max_rotations_), ec);
        for (int i = max_rotations_ - 1; i >= 1; --i) {
            fs::rename(path_ + "." + std::to_string(i),
                       path_ + "." + std::to_string(i + 1), ec);
        }
        fs::rename(path_, path_ + ".1", ec);
    }
    out_.open(path_, std::ios::trunc);
    bytes_ = 0;
    ++rotations_;
}

void EventLog::emit(const std::string& kind,
                    std::initializer_list<EventField> fields)
{
    emit(kind, std::vector<EventField>(fields));
}

void EventLog::emit(const std::string& kind,
                    const std::vector<EventField>& fields)
{
    std::ostringstream line;
    line.precision(15);
    line << "{\"ts\": " << unix_seconds() << ", \"event\": ";
    json_quote(line, kind);
    for (const auto& f : fields) {
        line << ", ";
        json_quote(line, f.key);
        line << ": ";
        switch (f.type) {
        case EventField::Type::string:
            json_quote(line, f.str);
            break;
        case EventField::Type::number:
            json_number(line, f.num);
            break;
        case EventField::Type::integer:
            line << f.integer;
            break;
        case EventField::Type::boolean:
            line << (f.boolean ? "true" : "false");
            break;
        }
    }
    line << "}\n";
    const std::string text = line.str();

    std::lock_guard<std::mutex> lock(mutex_);
    if (!out_.is_open()) {
        return;
    }
    if (bytes_ > 0 &&
        bytes_ + static_cast<std::int64_t>(text.size()) > max_bytes_) {
        rotate_locked();
    }
    out_ << text;
    out_.flush();  // lines must be visible to a live tail/obs_top
    bytes_ += static_cast<std::int64_t>(text.size());
    ++emitted_;
}

EventLog& events()
{
    static EventLog log;
    return log;
}

bool open_events(const std::string& path, std::int64_t max_bytes,
                 int max_rotations)
{
    const bool ok = events().open(path, max_bytes, max_rotations);
    detail::g_events_enabled.store(ok, std::memory_order_relaxed);
    return ok;
}

void close_events()
{
    detail::g_events_enabled.store(false, std::memory_order_relaxed);
    events().close();
}

}  // namespace bsis::obs
