// MetricsRegistry: named counters, gauges, and histograms for the solver
// stack.
//
// The registry is the live replacement of the one-off bench computations:
// every execution path (scalar, lockstep, simulated GPU) records into the
// same named metrics, and a snapshot serializes them as JSON. One mutex
// guards the names and the values: every record site runs on a cold path
// (once per solve, Picard step or monitor tick, after the parallel
// region), so there is nothing to shard. The kernels' per-phase time goes
// to per-thread tallies instead (obs/phase.hpp). Record sites are
// expected to be gated by `obs::metrics_enabled()` (see
// obs/telemetry.hpp); a disabled registry costs one relaxed atomic load
// per site.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace bsis::obs {

/// Quantile summary of one histogram (p50/p95 over the retained samples,
/// count/sum/max exact over every recorded sample).
struct HistogramSummary {
    std::int64_t count = 0;
    double sum = 0;
    double max = 0;
    double p50 = 0;
    double p95 = 0;

    double mean() const
    {
        return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
};

/// Quantile of an unsorted sample set: type-7 linear interpolation on a
/// sorted copy (the R/NumPy default). Degenerate inputs behave sensibly:
/// no samples -> 0, one sample -> that sample for every q, all-equal
/// samples -> that value exactly. The histogram quantiles and
/// ProfileWindow's p95 both use it.
double quantile(std::vector<double> samples, double q);

/// Point-in-time copy of every registered metric.
struct MetricsSnapshot {
    struct Counter {
        std::string name;
        std::int64_t value = 0;
    };
    struct Gauge {
        std::string name;
        double value = 0;
        bool set = false;  ///< false until the first set()
    };
    struct Histogram {
        std::string name;
        HistogramSummary summary;
    };

    std::vector<Counter> counters;
    std::vector<Gauge> gauges;
    std::vector<Histogram> histograms;

    /// Lookup helpers (linear scan; snapshots are small). Return the
    /// default-constructed value when the name is unknown.
    std::int64_t counter(const std::string& name) const;
    double gauge(const std::string& name) const;
    bool gauge_set(const std::string& name) const;
    HistogramSummary histogram(const std::string& name) const;

    /// JSON document: {"counters": {...}, "gauges": {...},
    /// "histograms": {"name": {"count": .., "p50": .., ...}}}.
    std::string json() const;
};

/// Registry of named metrics; thread-safe under one mutex.
class MetricsRegistry {
public:
    using Id = int;

    /// Samples each histogram retains before stride decimation halves
    /// them (count/sum/max stay exact; quantiles become approximate).
    static constexpr int histogram_shard_capacity = 4096;

    /// Registration is idempotent: the same name always yields the same
    /// id. Registering a name under two different kinds throws.
    Id counter(const std::string& name);
    Id gauge(const std::string& name);
    Id histogram(const std::string& name);

    /// Recording. Ids must come from the matching register call.
    void add(Id id, std::int64_t delta = 1);
    void set(Id id, double value);
    void observe(Id id, double sample);

    /// Convenience name-based recording for cold call sites (registers
    /// the name on first use).
    void add_named(const std::string& name, std::int64_t delta = 1);
    void set_named(const std::string& name, double value);
    void observe_named(const std::string& name, double sample);

    MetricsSnapshot snapshot() const;
    std::string snapshot_json() const { return snapshot().json(); }
    bool write_json(const std::string& path) const;

    /// Zeroes every recorded value; registered names and ids survive.
    void reset_values();

private:
    enum class Kind { counter, gauge, histogram };

    /// Ids encode (kind, slot-within-kind), so recording indexes the
    /// kind's table directly.
    static constexpr Id kind_shift = 24;
    static Id encode(Kind kind, int slot)
    {
        return (static_cast<Id>(kind) << kind_shift) | slot;
    }
    static Kind kind_of(Id id) { return static_cast<Kind>(id >> kind_shift); }
    static std::size_t slot_of(Id id)
    {
        return static_cast<std::size_t>(id & ((1 << kind_shift) - 1));
    }

    struct Histogram {
        std::string name;
        HistogramSummary summary;     ///< count/sum/max exact; no quantiles
        std::vector<double> samples;  ///< stride-decimated reservoir
        std::int64_t stride = 1;
    };

    Id register_metric(const std::string& name, Kind kind);

    mutable std::mutex mutex_;
    std::vector<MetricsSnapshot::Counter> counters_;
    std::vector<MetricsSnapshot::Gauge> gauges_;
    std::vector<Histogram> histograms_;
};

}  // namespace bsis::obs
