// solve_report: renders a metrics-JSON snapshot (plus optional Chrome
// trace) into the human-readable performance-attribution report, and
// gates CI on drift alarms / bandwidth sanity.
//
// Usage:
//   solve_report METRICS.json [--trace=TRACE.json] [--out=REPORT.txt]
//                [--gate-drift] [--gate-bandwidth]
//
// Exit status: 0 on success; 1 on I/O or parse errors; 2 when a
// requested gate fails (drift alarms present, or a phase's achieved
// bandwidth falls outside (0, peak]).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/report.hpp"

namespace {

bool read_file(const std::string& path, std::string& out)
{
    std::ifstream in(path);
    if (!in) {
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out = buffer.str();
    return true;
}

void usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s METRICS.json [--trace=TRACE.json] "
                 "[--out=REPORT.txt] [--gate-drift] [--gate-bandwidth]\n",
                 argv0);
}

}  // namespace

int main(int argc, char** argv)
{
    std::string metrics_path;
    std::string trace_path;
    std::string out_path;
    bool gate_drift = false;
    bool gate_bandwidth = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--trace=", 0) == 0) {
            trace_path = arg.substr(8);
        } else if (arg.rfind("--out=", 0) == 0) {
            out_path = arg.substr(6);
        } else if (arg == "--gate-drift") {
            gate_drift = true;
        } else if (arg == "--gate-bandwidth") {
            gate_bandwidth = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage(argv[0]);
            return 1;
        } else if (metrics_path.empty()) {
            metrics_path = arg;
        } else {
            std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
            usage(argv[0]);
            return 1;
        }
    }
    if (metrics_path.empty()) {
        usage(argv[0]);
        return 1;
    }

    bsis::obs::MetricsSnapshot metrics;
    if (!bsis::obs::load_metrics_json(metrics_path, metrics)) {
        std::fprintf(stderr, "solve_report: cannot read or parse %s\n",
                     metrics_path.c_str());
        return 1;
    }

    std::map<std::string, bsis::obs::TraceSpanStats> trace_spans;
    if (!trace_path.empty()) {
        std::string trace_text;
        if (!read_file(trace_path, trace_text) ||
            !bsis::obs::summarize_trace_json(trace_text, trace_spans)) {
            std::fprintf(stderr,
                         "solve_report: cannot read or parse trace %s\n",
                         trace_path.c_str());
            return 1;
        }
    }

    const auto report = bsis::obs::render_solve_report(metrics, trace_spans);
    if (!out_path.empty()) {
        std::ofstream out(out_path);
        if (!out) {
            std::fprintf(stderr, "solve_report: cannot write %s\n",
                         out_path.c_str());
            return 1;
        }
        out << report.text;
    } else {
        std::cout << report.text;
    }

    int status = 0;
    if (gate_drift && report.drift_alarms > 0) {
        std::fprintf(stderr,
                     "solve_report: DRIFT GATE FAILED (%d alarm(s))\n",
                     report.drift_alarms);
        status = 2;
    }
    if (gate_bandwidth && report.bandwidth_violations > 0) {
        std::fprintf(
            stderr,
            "solve_report: BANDWIDTH GATE FAILED (%d violation(s))\n",
            report.bandwidth_violations);
        status = 2;
    }
    return status;
}
