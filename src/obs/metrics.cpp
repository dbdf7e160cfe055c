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
    std::lock_guard<std::mutex> lock(names_mutex_);
    const auto check_unique = [&](const std::vector<std::string>& other) {
        for (const auto& n : other) {
            BSIS_ENSURE_ARG(n != name,
                            "metric '" + name +
                                "' already registered with another kind");
        }
    };
    auto& names = kind == Kind::counter
                      ? counter_names_
                      : (kind == Kind::gauge ? gauge_names_
                                             : histogram_names_);
    for (std::size_t slot = 0; slot < names.size(); ++slot) {
        if (names[slot] == name) {
            return encode(kind, static_cast<int>(slot));
        }
    }
    if (kind != Kind::counter) {
        check_unique(counter_names_);
    }
    if (kind != Kind::gauge) {
        check_unique(gauge_names_);
    }
    if (kind != Kind::histogram) {
        check_unique(histogram_names_);
    }
    names.push_back(name);
    return encode(kind, static_cast<int>(names.size()) - 1);
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
    const int slot = slot_of(id);
    auto& shard = shards_.local();
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (static_cast<std::size_t>(slot) >= shard.counters.size()) {
        shard.counters.resize(static_cast<std::size_t>(slot) + 1, 0);
    }
    shard.counters[static_cast<std::size_t>(slot)] += delta;
}

void MetricsRegistry::set(Id id, double value)
{
    BSIS_ASSERT(kind_of(id) == Kind::gauge);
    const int slot = slot_of(id);
    const auto seq = gauge_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    auto& shard = shards_.local();
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (static_cast<std::size_t>(slot) >= shard.gauges.size()) {
        shard.gauges.resize(static_cast<std::size_t>(slot) + 1);
    }
    auto& cell = shard.gauges[static_cast<std::size_t>(slot)];
    cell.seq = seq;
    cell.value = value;
}

void MetricsRegistry::observe(Id id, double sample)
{
    BSIS_ASSERT(kind_of(id) == Kind::histogram);
    const int slot = slot_of(id);
    auto& shard = shards_.local();
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (static_cast<std::size_t>(slot) >= shard.histograms.size()) {
        shard.histograms.resize(static_cast<std::size_t>(slot) + 1);
    }
    auto& cell = shard.histograms[static_cast<std::size_t>(slot)];
    cell.max = cell.any ? std::max(cell.max, sample) : sample;
    cell.any = true;
    cell.sum += sample;
    // Stride decimation keeps the reservoir bounded: when full, drop every
    // other retained sample and double the admission stride. count stays
    // exact; quantiles come from the retained subsample.
    if (cell.count % cell.stride == 0) {
        if (cell.samples.size() ==
            static_cast<std::size_t>(histogram_shard_capacity)) {
            std::vector<double> kept;
            kept.reserve(cell.samples.size() / 2 + 1);
            for (std::size_t i = 0; i < cell.samples.size(); i += 2) {
                kept.push_back(cell.samples[i]);
            }
            cell.samples = std::move(kept);
            cell.stride *= 2;
            if (cell.count % cell.stride == 0) {
                cell.samples.push_back(sample);
            }
        } else {
            cell.samples.push_back(sample);
        }
    }
    ++cell.count;
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
    std::vector<std::uint64_t> gauge_seqs;
    {
        std::lock_guard<std::mutex> lock(names_mutex_);
        snap.counters.resize(counter_names_.size());
        for (std::size_t i = 0; i < counter_names_.size(); ++i) {
            snap.counters[i].name = counter_names_[i];
        }
        snap.gauges.resize(gauge_names_.size());
        for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
            snap.gauges[i].name = gauge_names_[i];
        }
        snap.histograms.resize(histogram_names_.size());
        for (std::size_t i = 0; i < histogram_names_.size(); ++i) {
            snap.histograms[i].name = histogram_names_[i];
        }
    }
    gauge_seqs.assign(snap.gauges.size(), 0);
    std::vector<std::vector<double>> hist_samples(snap.histograms.size());
    shards_.for_each([&](const Shard& shard) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        for (std::size_t i = 0;
             i < shard.counters.size() && i < snap.counters.size(); ++i) {
            snap.counters[i].value += shard.counters[i];
        }
        for (std::size_t i = 0;
             i < shard.gauges.size() && i < snap.gauges.size(); ++i) {
            const auto& cell = shard.gauges[i];
            if (cell.seq > gauge_seqs[i]) {
                gauge_seqs[i] = cell.seq;
                snap.gauges[i].value = cell.value;
                snap.gauges[i].set = true;
            }
        }
        for (std::size_t i = 0;
             i < shard.histograms.size() && i < snap.histograms.size();
             ++i) {
            const auto& cell = shard.histograms[i];
            auto& summary = snap.histograms[i].summary;
            summary.count += cell.count;
            summary.sum += cell.sum;
            if (cell.any) {
                summary.max = summary.count == cell.count
                                  ? cell.max
                                  : std::max(summary.max, cell.max);
            }
            hist_samples[i].insert(hist_samples[i].end(),
                                   cell.samples.begin(),
                                   cell.samples.end());
        }
    });
    for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
        auto& summary = snap.histograms[i].summary;
        summary.p50 = quantile(hist_samples[i], 0.50);
        summary.p95 = quantile(hist_samples[i], 0.95);
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
    shards_.for_each([](Shard& shard) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.counters.assign(shard.counters.size(), 0);
        shard.gauges.assign(shard.gauges.size(), GaugeCell{});
        shard.histograms.assign(shard.histograms.size(), HistCell{});
    });
}

}  // namespace bsis::obs
