// obs_top: a refresh-loop text dashboard over the live monitor's
// Prometheus exposition (see DESIGN.md, "Live monitoring").
//
// Point it at the promfile a monitored run rewrites every tick
// (`--prom=FILE` on any example):
//
//   obs_top /tmp/solved.prom                # refresh every second
//   obs_top --once /tmp/solved.prom         # one screen; exit 1 if any
//                                           # alert is firing, 2 if the
//                                           # file is unreadable
//
// The screen shows solver throughput, iteration quantiles, failure and
// drift rates, the per-phase bandwidth/roofline table, and every alert
// rule's state -- all read from the exposition, no PromQL needed (the
// monitor publishes `_per_sec` rate gauges alongside each counter).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "obs/monitor.hpp"

namespace {

using bsis::obs::PromDocument;

int usage(const char* argv0)
{
    std::cerr
        << "usage: " << argv0
        << " [--once] [--interval=SECONDS] PROMFILE\n"
           "  PROMFILE        promfile rewritten by a --prom=FILE run\n"
           "  --once          render one screen; exit 1 if any alert is\n"
           "                  firing, 2 if the exposition is unreadable\n"
           "  --interval=S    refresh period in loop mode (default 1)\n";
    return 2;
}

void print_rate_line(const PromDocument& doc, const char* label,
                     const std::string& metric)
{
    const double total = doc.value(metric);
    const double rate = doc.value(metric + "_per_sec");
    if (doc.has(metric)) {
        std::printf("  %-22s %12.0f total  %10.2f /s\n", label, total,
                    rate);
    }
}

/// Sums `<prefix><class>` and its `_per_sec` over the failure classes and
/// prints one line per nonzero class plus the total.
void print_failures(const PromDocument& doc, const char* label,
                    const std::string& prefix)
{
    static const char* const classes[] = {"max_iters", "breakdown_rho",
                                          "breakdown_omega", "stagnated",
                                          "non_finite"};
    double total = 0;
    double rate = 0;
    bool any = false;
    for (const char* c : classes) {
        const std::string name = prefix + c;
        if (doc.has(name)) {
            any = true;
            total += doc.value(name);
            rate += doc.value(name + "_per_sec");
        }
    }
    if (!any) {
        return;
    }
    std::printf("  %-22s %12.0f total  %10.2f /s", label, total, rate);
    if (total > 0) {
        std::printf("   [");
        bool first = true;
        for (const char* c : classes) {
            const double v = doc.value(prefix + c);
            if (v > 0) {
                std::printf("%s%s=%.0f", first ? "" : " ", c, v);
                first = false;
            }
        }
        std::printf("]");
    }
    std::printf("\n");
}

void print_quantiles(const PromDocument& doc, const char* label,
                     const std::string& metric)
{
    const auto* p50 = doc.find(metric, "quantile", "0.5");
    const auto* p95 = doc.find(metric, "quantile", "0.95");
    if (p50 == nullptr || p95 == nullptr) {
        return;
    }
    std::printf("  %-22s p50 %10.3g   p95 %10.3g   count %.0f\n", label,
                p50->value, p95->value, doc.value(metric + "_count"));
}

void print_phase_table(const PromDocument& doc)
{
    static const char* const phases[] = {"spmv", "precond_apply",
                                         "reduction", "update", "other"};
    bool header = false;
    for (const char* phase : phases) {
        const std::string base = "bsis_solve_phase_" + std::string(phase) +
                                 "_";
        if (!doc.has(base + "gbps")) {
            continue;
        }
        if (!header) {
            std::printf("\nper-phase attribution (last solve)\n");
            std::printf("  %-15s %10s %10s %8s %10s\n", "phase", "GB/s",
                        "GF/s", "%peak", "seconds");
            header = true;
        }
        std::printf("  %-15s %10.2f %10.2f %7.1f%% %10.3g\n", phase,
                    doc.value(base + "gbps"), doc.value(base + "gflops"),
                    100.0 * doc.value(base + "peak_fraction"),
                    doc.value(base + "seconds"));
    }
}

/// Renders one screen; returns the number of firing alerts.
int render(const PromDocument& doc)
{
    const double exported_at = doc.value("bsis_monitor_unix_time");
    const double now =
        std::chrono::duration<double>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    std::printf("obs_top -- tick %.0f, exposition age %.1fs\n",
                doc.value("bsis_monitor_ticks"),
                std::max(0.0, now - exported_at));

    std::printf("\nthroughput\n");
    print_rate_line(doc, "batches", "bsis_solve_batches");
    print_rate_line(doc, "systems", "bsis_solve_systems");
    print_rate_line(doc, "iterations", "bsis_solve_iterations");
    print_rate_line(doc, "picard steps", "bsis_xgc_picard_steps");
    print_rate_line(doc, "gpusim solves", "bsis_gpusim_solves");

    std::printf("\nlatency / iterations\n");
    print_quantiles(doc, "iterations/system",
                    "bsis_solve_system_iterations");
    print_quantiles(doc, "batch wall seconds", "bsis_solve_wall_seconds");
    if (doc.has("bsis_solve_last_wall_seconds")) {
        std::printf("  %-22s %10.3gs\n", "last batch wall",
                    doc.value("bsis_solve_last_wall_seconds"));
    }

    std::printf("\nfailures / drift\n");
    print_failures(doc, "solver failures", "bsis_solve_fail_");
    print_failures(doc, "gpusim failures", "bsis_gpusim_fail_");
    print_failures(doc, "xgc failures", "bsis_xgc_fail_");
    print_rate_line(doc, "unconverged systems", "bsis_solve_unconverged");
    print_rate_line(doc, "drift checks", "bsis_obs_drift_checks");
    print_rate_line(doc, "drift alarms", "bsis_obs_drift_alarms");
    if (doc.has("bsis_obs_trace_dropped")) {
        std::printf("  %-22s %12.0f\n", "trace spans dropped",
                    doc.value("bsis_obs_trace_dropped"));
    }

    print_phase_table(doc);

    std::printf("\nalerts (fired %.0f, resolved %.0f)\n",
                doc.value("bsis_obs_alerts_fired"),
                doc.value("bsis_obs_alerts_resolved"));
    int firing = 0;
    for (const auto& s : doc.samples) {
        if (s.name != "bsis_alert_firing") {
            continue;
        }
        const auto it = s.labels.find("alert");
        const std::string name =
            it == s.labels.end() ? "?" : it->second;
        const bool on = s.value > 0;
        firing += on ? 1 : 0;
        std::printf("  %-22s %s\n", name.c_str(), on ? "FIRING" : "ok");
    }
    std::fflush(stdout);
    return firing;
}

}  // namespace

int main(int argc, char** argv)
{
    std::string promfile;
    bool once = false;
    double interval = 1.0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--once") == 0) {
            once = true;
        } else if (std::strncmp(argv[i], "--interval=", 11) == 0) {
            interval = std::atof(argv[i] + 11);
        } else if (argv[i][0] == '-') {
            return usage(argv[0]);
        } else {
            promfile = argv[i];
        }
    }
    if (promfile.empty()) {
        return usage(argv[0]);
    }

    for (;;) {
        PromDocument doc;
        const bool ok = bsis::obs::load_prometheus_file(promfile, doc);
        if (!once) {
            std::printf("\x1b[2J\x1b[H");  // clear screen, home cursor
        }
        int firing = 0;
        if (ok) {
            firing = render(doc);
        } else {
            std::printf("obs_top: no exposition at %s yet\n",
                        promfile.c_str());
        }
        if (once) {
            return ok ? (firing > 0 ? 1 : 0) : 2;
        }
        std::this_thread::sleep_for(
            std::chrono::duration<double>(std::max(0.1, interval)));
    }
}
