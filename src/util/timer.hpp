// Wall-clock timing utilities used by benchmarks and the executors.
#pragma once

#include <chrono>

namespace bsis {

/// Monotonic wall-clock timer with nanosecond resolution.
class Timer {
public:
    Timer() { reset(); }

    /// Restarts the timer.
    void reset();

    /// Seconds elapsed since construction or the last reset().
    double seconds() const;

    /// Milliseconds elapsed since construction or the last reset().
    double milliseconds() const { return seconds() * 1e3; }

    /// Microseconds elapsed since construction or the last reset().
    double microseconds() const { return seconds() * 1e6; }

private:
    std::chrono::steady_clock::time_point start_;
};

}  // namespace bsis
