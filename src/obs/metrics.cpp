#include "obs/metrics.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"
#include "util/error.hpp"

namespace bsis::obs {

double quantile(std::vector<double> samples, double q)
{
    if (samples.empty()) {
        return 0.0;
    }
    std::sort(samples.begin(), samples.end());
    if (samples.size() == 1) {
        return samples[0];
    }
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
}

std::int64_t MetricsSnapshot::counter(const std::string& name) const
{
    for (const auto& c : counters) {
        if (c.name == name) {
            return c.value;
        }
    }
    return 0;
}

double MetricsSnapshot::gauge(const std::string& name) const
{
    for (const auto& g : gauges) {
        if (g.name == name) {
            return g.value;
        }
    }
    return 0.0;
}

bool MetricsSnapshot::gauge_set(const std::string& name) const
{
    for (const auto& g : gauges) {
        if (g.name == name) {
            return g.set;
        }
    }
    return false;
}

HistogramSummary MetricsSnapshot::histogram(const std::string& name) const
{
    for (const auto& h : histograms) {
        if (h.name == name) {
            return h.summary;
        }
    }
    return {};
}

std::string MetricsSnapshot::json() const
{
    std::ostringstream os;
    os.precision(12);
    os << "{\n  \"counters\": {";
    for (std::size_t i = 0; i < counters.size(); ++i) {
        os << (i == 0 ? "\n" : ",\n") << "    ";
        json_quote(os, counters[i].name);
        os << ": " << counters[i].value;
    }
    os << (counters.empty() ? "}" : "\n  }") << ",\n  \"gauges\": {";
    std::size_t emitted = 0;
    for (const auto& g : gauges) {
        if (!g.set) {
            continue;
        }
        os << (emitted == 0 ? "\n" : ",\n") << "    ";
        json_quote(os, g.name);
        os << ": ";
        json_number(os, g.value);
        ++emitted;
    }
    os << (emitted == 0 ? "}" : "\n  }") << ",\n  \"histograms\": {";
    for (std::size_t i = 0; i < histograms.size(); ++i) {
        const auto& h = histograms[i];
        os << (i == 0 ? "\n" : ",\n") << "    ";
        json_quote(os, h.name);
        os << ": {\"count\": " << h.summary.count << ", \"sum\": ";
        json_number(os, h.summary.sum);
        os << ", \"mean\": ";
        json_number(os, h.summary.mean());
        os << ", \"p50\": ";
        json_number(os, h.summary.p50);
        os << ", \"p95\": ";
        json_number(os, h.summary.p95);
        os << ", \"max\": ";
        json_number(os, h.summary.max);
        os << "}";
    }
    os << (histograms.empty() ? "}" : "\n  }") << "\n}\n";
    return os.str();
}

MetricsRegistry::Id MetricsRegistry::register_metric(const std::string& name,
                                                     Kind kind)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto find = [&](const auto& table) {
        for (std::size_t slot = 0; slot < table.size(); ++slot) {
            if (table[slot].name == name) {
                return static_cast<int>(slot);
            }
        }
        return -1;
    };
    // Indexed by Kind.
    const int found[] = {find(counters_), find(gauges_), find(histograms_)};
    if (found[static_cast<int>(kind)] >= 0) {
        return encode(kind, found[static_cast<int>(kind)]);
    }
    for (const int slot : found) {
        BSIS_ENSURE_ARG(slot < 0,
                        "metric '" + name +
                            "' already registered with another kind");
    }
    std::size_t size = 0;
    switch (kind) {
    case Kind::counter:
        counters_.push_back({name, 0});
        size = counters_.size();
        break;
    case Kind::gauge:
        gauges_.push_back({name, 0.0, false});
        size = gauges_.size();
        break;
    case Kind::histogram:
        histograms_.push_back({name, {}, {}, 1});
        size = histograms_.size();
        break;
    }
    return encode(kind, static_cast<int>(size) - 1);
}

MetricsRegistry::Id MetricsRegistry::counter(const std::string& name)
{
    return register_metric(name, Kind::counter);
}

MetricsRegistry::Id MetricsRegistry::gauge(const std::string& name)
{
    return register_metric(name, Kind::gauge);
}

MetricsRegistry::Id MetricsRegistry::histogram(const std::string& name)
{
    return register_metric(name, Kind::histogram);
}

void MetricsRegistry::add(Id id, std::int64_t delta)
{
    BSIS_ASSERT(kind_of(id) == Kind::counter);
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.at(slot_of(id)).value += delta;
}

void MetricsRegistry::set(Id id, double value)
{
    BSIS_ASSERT(kind_of(id) == Kind::gauge);
    std::lock_guard<std::mutex> lock(mutex_);
    auto& gauge = gauges_.at(slot_of(id));
    gauge.value = value;
    gauge.set = true;
}

void MetricsRegistry::observe(Id id, double sample)
{
    BSIS_ASSERT(kind_of(id) == Kind::histogram);
    std::lock_guard<std::mutex> lock(mutex_);
    auto& h = histograms_.at(slot_of(id));
    auto& summary = h.summary;
    summary.max = summary.count == 0 ? sample : std::max(summary.max, sample);
    summary.sum += sample;
    // Stride decimation keeps the reservoir bounded: when full, drop every
    // other retained sample and double the admission stride. count stays
    // exact; quantiles come from the retained subsample.
    if (summary.count % h.stride == 0) {
        if (h.samples.size() ==
            static_cast<std::size_t>(histogram_shard_capacity)) {
            std::vector<double> kept;
            kept.reserve(h.samples.size() / 2 + 1);
            for (std::size_t i = 0; i < h.samples.size(); i += 2) {
                kept.push_back(h.samples[i]);
            }
            h.samples = std::move(kept);
            h.stride *= 2;
            if (summary.count % h.stride == 0) {
                h.samples.push_back(sample);
            }
        } else {
            h.samples.push_back(sample);
        }
    }
    ++summary.count;
}

void MetricsRegistry::add_named(const std::string& name, std::int64_t delta)
{
    add(counter(name), delta);
}

void MetricsRegistry::set_named(const std::string& name, double value)
{
    set(gauge(name), value);
}

void MetricsRegistry::observe_named(const std::string& name, double sample)
{
    observe(histogram(name), sample);
}

MetricsSnapshot MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    std::lock_guard<std::mutex> lock(mutex_);
    snap.counters = counters_;
    snap.gauges = gauges_;
    snap.histograms.reserve(histograms_.size());
    for (const auto& h : histograms_) {
        auto summary = h.summary;
        summary.p50 = quantile(h.samples, 0.50);
        summary.p95 = quantile(h.samples, 0.95);
        snap.histograms.push_back({h.name, summary});
    }
    return snap;
}

bool MetricsRegistry::write_json(const std::string& path) const
{
    std::ofstream out(path);
    if (!out) {
        return false;
    }
    out << snapshot_json();
    return static_cast<bool>(out);
}

void MetricsRegistry::reset_values()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& c : counters_) {
        c.value = 0;
    }
    for (auto& g : gauges_) {
        g.value = 0;
        g.set = false;
    }
    for (auto& h : histograms_) {
        h = {h.name, {}, {}, 1};
    }
}

}  // namespace bsis::obs
