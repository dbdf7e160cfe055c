#include "obs/report.hpp"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

#include "obs/json.hpp"

namespace bsis::obs {

bool parse_metrics_json(const std::string& text, MetricsSnapshot& out)
{
    JsonValue root;
    if (!parse_json(text, root) || root.kind != JsonValue::Kind::object) {
        return false;
    }
    // An absent section reads as empty; a present one must be an object.
    JsonValue none;
    none.kind = JsonValue::Kind::object;
    const auto section = [&](const char* key) -> const JsonValue& {
        const JsonValue* found = root.find(key);
        return found != nullptr ? *found : none;
    };
    const JsonValue& counters = section("counters");
    const JsonValue& gauges = section("gauges");
    const JsonValue& hists = section("histograms");
    if (counters.kind != JsonValue::Kind::object ||
        gauges.kind != JsonValue::Kind::object ||
        hists.kind != JsonValue::Kind::object) {
        return false;
    }
    MetricsSnapshot snap;
    for (const auto& [name, value] : counters.object) {
        MetricsSnapshot::Counter c{name, 0};
        if (!json_integer(value, c.value)) {
            return false;
        }
        snap.counters.push_back(std::move(c));
    }
    for (const auto& [name, value] : gauges.object) {
        MetricsSnapshot::Gauge g{name, 0, true};
        if (!json_real(value, g.value)) {
            return false;
        }
        snap.gauges.push_back(std::move(g));
    }
    for (const auto& [name, value] : hists.object) {
        if (value.kind != JsonValue::Kind::object) {
            return false;
        }
        MetricsSnapshot::Histogram h{name, {}};
        for (const auto& [field, leaf] : value.object) {
            double v = 0;
            const bool ok = field == "count"
                                ? json_integer(leaf, h.summary.count)
                                : json_real(leaf, v);
            if (!ok) {
                return false;
            }
            // "mean" is derived (sum / count); unknown fields are ignored.
            if (field == "sum") {
                h.summary.sum = v;
            } else if (field == "p50") {
                h.summary.p50 = v;
            } else if (field == "p95") {
                h.summary.p95 = v;
            } else if (field == "max") {
                h.summary.max = v;
            }
        }
        snap.histograms.push_back(std::move(h));
    }
    out = std::move(snap);
    return true;
}

bool load_metrics_json(const std::string& path, MetricsSnapshot& out)
{
    std::ifstream in(path);
    if (!in) {
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse_metrics_json(buffer.str(), out);
}

bool summarize_trace_json(const std::string& text,
                          std::map<std::string, TraceSpanStats>& out)
{
    JsonValue root;
    if (!parse_json(text, root) || root.kind != JsonValue::Kind::object) {
        return false;
    }
    const auto* events = root.find("traceEvents");
    if (events == nullptr || events->kind != JsonValue::Kind::array) {
        return false;
    }
    out.clear();
    for (const auto& event : events->array) {
        if (event.kind != JsonValue::Kind::object) {
            continue;
        }
        const auto* name = event.find("name");
        const auto* dur = event.find("dur");
        if (name == nullptr || name->kind != JsonValue::Kind::string) {
            continue;
        }
        auto& stats = out[name->string];
        stats.count += 1;
        if (dur != nullptr && dur->kind == JsonValue::Kind::number) {
            stats.total_us += dur->number;
        }
    }
    return true;
}

namespace {

std::string format_number(double v, int precision = 4)
{
    std::ostringstream os;
    os.precision(precision);
    os << v;
    return os.str();
}

/// Pads `s` to `width` (left-aligned for text, right-aligned for numbers).
std::string pad(const std::string& s, std::size_t width, bool right = true)
{
    if (s.size() >= width) {
        return s;
    }
    const std::string fill(width - s.size(), ' ');
    return right ? fill + s : s + fill;
}

/// Attribution suffixes recorded per phase (see record_phase_attribution).
struct PhaseRow {
    std::string name;
    double seconds = 0, calls = 0, bytes = 0, flops = 0;
    double gbps = 0, gflops = 0, intensity = 0, peak_fraction = 0;
    bool memory_bound = true;
};

/// Collects `<prefix>.phase.<name>.*` gauge families of one prefix.
std::vector<PhaseRow> collect_phases(const MetricsSnapshot& m,
                                     const std::string& prefix)
{
    const std::string stem = prefix + ".phase.";
    std::set<std::string> names;
    for (const auto& g : m.gauges) {
        const std::string& key = g.name;
        if (!g.set || key.rfind(stem, 0) != 0) {
            continue;
        }
        const auto dot = key.find('.', stem.size());
        if (dot != std::string::npos) {
            names.insert(key.substr(stem.size(), dot - stem.size()));
        }
    }
    std::vector<PhaseRow> rows;
    for (const auto& name : names) {
        const std::string base = stem + name + ".";
        PhaseRow row;
        row.name = name;
        row.seconds = m.gauge(base + "seconds");
        row.calls = m.gauge(base + "calls");
        row.bytes = m.gauge(base + "bytes");
        row.flops = m.gauge(base + "flops");
        row.gbps = m.gauge(base + "gbps");
        row.gflops = m.gauge(base + "gflops");
        row.intensity = m.gauge(base + "intensity");
        row.peak_fraction = m.gauge(base + "peak_fraction");
        row.memory_bound = !m.gauge_set(base + "memory_bound") ||
                           m.gauge(base + "memory_bound") != 0.0;
        rows.push_back(row);
    }
    return rows;
}

}  // namespace

SolveReport render_solve_report(
    const MetricsSnapshot& metrics,
    const std::map<std::string, TraceSpanStats>& trace_spans)
{
    SolveReport report;
    std::ostringstream os;
    os << "=== Batched-solver performance report ===\n\n";

    // --- solve summary ---
    os << "Solve summary\n";
    os << "  batches:      " << metrics.counter("solve.batches") << "\n";
    os << "  systems:      " << metrics.counter("solve.systems") << "\n";
    os << "  iterations:   " << metrics.counter("solve.iterations") << "\n";
    os << "  unconverged:  " << metrics.counter("solve.unconverged") << "\n";
    const auto wall = std::find_if(
        metrics.histograms.begin(), metrics.histograms.end(),
        [](const auto& h) { return h.name == "solve.wall_seconds"; });
    if (wall != metrics.histograms.end()) {
        os << "  wall seconds: total " << format_number(wall->summary.sum)
           << ", mean " << format_number(wall->summary.mean()) << ", p95 "
           << format_number(wall->summary.p95) << "\n";
    }
    os << "\n";

    // --- per-prefix phase attribution tables ---
    for (const std::string prefix : {"solve", "gpusim"}) {
        const auto rows = collect_phases(metrics, prefix);
        if (rows.empty()) {
            continue;
        }
        const double peak_gbps =
            metrics.gauge(prefix + std::string(".roofline.peak_gbps"));
        const double peak_gflops =
            metrics.gauge(prefix + std::string(".roofline.peak_gflops"));
        os << "Phase attribution [" << prefix << "]";
        if (peak_gbps > 0) {
            os << "  (roofline " << format_number(peak_gbps) << " GB/s, "
               << format_number(peak_gflops) << " GF/s, ridge "
               << format_number(peak_gbps > 0 ? peak_gflops / peak_gbps
                                              : 0.0)
               << " flop/B)";
        }
        os << "\n";
        os << "  " << pad("phase", 14, false) << pad("seconds", 11)
           << pad("calls", 9) << pad("GB", 10) << pad("GFLOP", 10)
           << pad("GB/s", 9) << pad("GF/s", 9) << pad("flop/B", 9)
           << pad("bound", 9) << pad("%peak", 8) << "\n";
        for (const auto& row : rows) {
            ++report.phases;
            os << "  " << pad(row.name, 14, false)
               << pad(format_number(row.seconds), 11)
               << pad(format_number(row.calls, 9), 9)
               << pad(format_number(row.bytes * 1e-9), 10)
               << pad(format_number(row.flops * 1e-9), 10)
               << pad(format_number(row.gbps), 9)
               << pad(format_number(row.gflops), 9)
               << pad(format_number(row.intensity, 3), 9)
               << pad(row.memory_bound ? "memory" : "compute", 9)
               << pad(format_number(row.peak_fraction * 100.0, 3) + "%", 8)
               << "\n";
            // Sanity gate: a phase that ran and moved bytes must land in
            // (0, peak]. Modeled (gpusim) phases use their own peak.
            if (row.seconds > 0 && row.bytes > 0 && peak_gbps > 0) {
                if (!(row.gbps > 0 && row.gbps <= peak_gbps)) {
                    ++report.bandwidth_violations;
                }
            }
        }
        os << "\n";
    }

    // --- drift summary ---
    const auto checks = metrics.counter("obs.drift.checks");
    const auto alarms = metrics.counter("obs.drift.alarms");
    report.drift_alarms = static_cast<int>(alarms);
    os << "Drift (measured vs modeled)\n";
    os << "  checks: " << checks << ", alarms: " << alarms << "\n";
    for (const auto& [key, value, set] : metrics.gauges) {
        if (!set || key.rfind("obs.drift.", 0) != 0 ||
            key.size() < 6 ||
            key.compare(key.size() - 6, 6, ".ratio") != 0) {
            continue;
        }
        const std::string stem = key.substr(0, key.size() - 6);
        const bool alarmed = metrics.gauge(stem + ".alarmed") != 0.0;
        os << "  " << pad(stem.substr(10), 28, false) << " ratio "
           << pad(format_number(value, 3), 8)
           << (alarmed ? "  ALARM" : "") << "\n";
    }
    os << "\n";

    // --- continuous profiler window ---
    if (metrics.gauge("obs.window.samples") > 0) {
        os << "Continuous profiler window ("
           << metrics.gauge("obs.window.samples") << " samples)\n";
        os << "  " << pad("phase", 14, false) << pad("ewma_us", 11)
           << pad("p95_us", 11) << pad("ewma_GB/s", 11) << "\n";
        for (const char* phase :
             {"spmv", "precond_apply", "reduction", "update", "other"}) {
            const std::string base = std::string("obs.window.") + phase;
            if (!metrics.gauge_set(base + ".ewma_us")) {
                continue;
            }
            os << "  " << pad(phase, 14, false)
               << pad(format_number(metrics.gauge(base + ".ewma_us")), 11)
               << pad(format_number(metrics.gauge(base + ".p95_us")), 11)
               << pad(format_number(metrics.gauge(base + ".ewma_gbps")), 11)
               << "\n";
        }
        os << "\n";
    }

    // --- failure-class breakdown ---
    os << "Failure classes\n";
    bool any_fail_counter = false;
    for (const auto& [key, value] : metrics.counters) {
        if (key.rfind("solve.fail.", 0) == 0) {
            os << "  " << pad(key.substr(11), 18, false) << value << "\n";
            any_fail_counter = true;
        }
    }
    if (!any_fail_counter) {
        os << "  (no failure counters in snapshot)\n";
    }
    os << "\n";

    // --- trace section ---
    if (!trace_spans.empty()) {
        std::vector<std::pair<std::string, TraceSpanStats>> spans(
            trace_spans.begin(), trace_spans.end());
        std::sort(spans.begin(), spans.end(),
                  [](const auto& a, const auto& b) {
                      return a.second.total_us > b.second.total_us;
                  });
        os << "Trace spans (by total duration)\n";
        os << "  " << pad("span", 20, false) << pad("count", 10)
           << pad("total_ms", 12) << "\n";
        for (const auto& [name, stats] : spans) {
            os << "  " << pad(name, 20, false)
               << pad(std::to_string(stats.count), 10)
               << pad(format_number(stats.total_us * 1e-3), 12) << "\n";
        }
        os << "\n";
    }
    if (metrics.gauge_set("obs.trace.dropped")) {
        os << "Dropped trace spans: "
           << metrics.gauge("obs.trace.dropped") << "\n\n";
    }

    // --- gates ---
    os << "Gates\n";
    os << "  drift alarms:       " << report.drift_alarms << " "
       << (report.drift_alarms == 0 ? "(PASS)" : "(FAIL)") << "\n";
    os << "  bandwidth in range: " << report.bandwidth_violations
       << " violation(s) "
       << (report.bandwidth_violations == 0 ? "(PASS)" : "(FAIL)") << "\n";

    report.text = os.str();
    return report;
}

}  // namespace bsis::obs
