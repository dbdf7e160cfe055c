// Solve-report rendering: turns a metrics snapshot (live, or parsed back
// from its JSON) and optionally a Chrome trace into the human-readable
// performance-attribution report `tools/solve_report` and `--report=FILE`
// emit.
//
// The parser accepts exactly the document shape MetricsRegistry emits
// ({"counters": {...}, "gauges": {...}, "histograms": {name: {...}}});
// the renderer groups the attribution gauges back into per-phase tables,
// restates the roofline position of every phase, summarizes drift checks
// and failure classes, and flags gate violations (drift alarms,
// out-of-bounds bandwidth) so CI can fail on them.
#pragma once

#include <map>
#include <string>

#include "obs/metrics.hpp"

namespace bsis::obs {

/// Parses a MetricsRegistry JSON snapshot back into a snapshot (every
/// gauge it lists is set; non-finite values come back as json_real reads
/// them). Returns false on malformed input (unknown top-level keys are
/// tolerated; non-numeric leaves are not).
bool parse_metrics_json(const std::string& text, MetricsSnapshot& out);

/// Reads and parses `path`; returns false when unreadable or malformed.
bool load_metrics_json(const std::string& path, MetricsSnapshot& out);

/// Per-span aggregate of a Chrome trace document (name -> count and
/// summed duration), used for the report's trace section.
struct TraceSpanStats {
    std::int64_t count = 0;
    double total_us = 0;
};

/// Extracts per-name span aggregates from a Chrome trace-event JSON
/// document (the TraceSession output shape). Returns false on malformed
/// input.
bool summarize_trace_json(const std::string& text,
                          std::map<std::string, TraceSpanStats>& out);

struct SolveReport {
    std::string text;        ///< the rendered report
    int drift_alarms = 0;    ///< obs.drift alarm total in the snapshot
    int bandwidth_violations = 0;  ///< phases with GB/s outside (0, peak]
    int phases = 0;          ///< attribution phase rows rendered
};

/// Renders the report from a live or parsed snapshot (unset gauges are
/// skipped). `trace_spans` may be empty (section omitted).
SolveReport render_solve_report(
    const MetricsSnapshot& metrics,
    const std::map<std::string, TraceSpanStats>& trace_spans = {});

}  // namespace bsis::obs
