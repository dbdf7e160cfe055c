// Shared telemetry flags for the examples:
//   --trace=FILE         phase tracing on; Chrome trace JSON written to
//                        FILE at exit (load in chrome://tracing or
//                        ui.perfetto.dev)
//   --metrics-json=FILE  metrics registry on; JSON snapshot written to
//                        FILE at exit
//   --capture-failures=DIR  arm the flight recorder: every non-converged
//                        system of an armed solve is dumped as a replay
//                        bundle (A.mtx, b.mtx, x0.mtx, meta.json) under
//                        DIR, up to a bounded budget
//   --report=FILE        metrics registry on; the human-readable
//                        performance-attribution report (per-phase
//                        bandwidth/roofline table, drift summary,
//                        failure classes) rendered to FILE at exit --
//                        the same document `tools/solve_report` builds
//                        from a metrics snapshot
//   --monitor[=tick_ms]  metrics registry on; start the live monitor
//                        (background sampler + alert engine) at the given
//                        tick (default 250 ms)
//   --prom=FILE          implies --monitor; the Prometheus exposition is
//                        atomically rewritten to FILE every tick (point
//                        `obs_top FILE` or a node_exporter textfile
//                        collector at it)
//   --alerts=FILE        implies --monitor; replace the default alert
//                        rules with FILE (one rule per line, see
//                        obs/monitor.hpp for the grammar)
//   --events=FILE        structured JSON-lines event log (solve start/end,
//                        failure captures, drift alarms with every
//                        check, alert transitions) appended to FILE with
//                        size-capped rotation
//   --trace-buffer=N     cap each trace shard at N spans; overflow is
//                        dropped and counted in `obs.trace.dropped`
//
// Construct an ObsCli early in main with argc/argv: it consumes the
// recognized flags (compacting argv so positional parsing downstream is
// untouched), flips the obs runtime switches, and writes the requested
// artifacts from its destructor. Telemetry stays fully off -- and the
// instrumented hot paths at their one-branch disabled cost -- when
// neither flag is given.
#pragma once

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "obs/events.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/monitor.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace bsis::examples {

class ObsCli {
public:
    ObsCli(int& argc, char** argv)
    {
        int out = 1;
        for (int i = 1; i < argc; ++i) {
            if (std::strncmp(argv[i], "--trace=", 8) == 0) {
                trace_path_ = argv[i] + 8;
            } else if (std::strncmp(argv[i], "--metrics-json=", 15) == 0) {
                metrics_path_ = argv[i] + 15;
            } else if (std::strncmp(argv[i], "--capture-failures=", 19) ==
                       0) {
                recorder_ =
                    std::make_unique<obs::FlightRecorder>(argv[i] + 19);
            } else if (std::strncmp(argv[i], "--report=", 9) == 0) {
                report_path_ = argv[i] + 9;
            } else if (std::strcmp(argv[i], "--monitor") == 0) {
                monitor_requested_ = true;
            } else if (std::strncmp(argv[i], "--monitor=", 10) == 0) {
                monitor_requested_ = true;
                monitor_config_.tick_seconds =
                    std::atof(argv[i] + 10) / 1000.0;
            } else if (std::strncmp(argv[i], "--prom=", 7) == 0) {
                monitor_requested_ = true;
                monitor_config_.prom_path = argv[i] + 7;
            } else if (std::strncmp(argv[i], "--alerts=", 9) == 0) {
                monitor_requested_ = true;
                alerts_path_ = argv[i] + 9;
            } else if (std::strncmp(argv[i], "--events=", 9) == 0) {
                events_path_ = argv[i] + 9;
            } else if (std::strncmp(argv[i], "--trace-buffer=", 15) == 0) {
                obs::trace().set_shard_capacity(std::atoi(argv[i] + 15));
            } else {
                argv[out++] = argv[i];
            }
        }
        argc = out;
        if (!trace_path_.empty()) {
            obs::set_trace_enabled(true);
        }
        if (!metrics_path_.empty() || !report_path_.empty() ||
            monitor_requested_) {
            obs::set_metrics_enabled(true);
        }
        if (!events_path_.empty()) {
            if (!obs::open_events(events_path_)) {
                std::cerr << "[obs] failed to open event log "
                          << events_path_ << '\n';
                events_path_.clear();
            }
        }
        if (monitor_requested_) {
            if (!alerts_path_.empty()) {
                std::string error;
                if (!obs::load_alert_rules(alerts_path_,
                                           monitor_config_.rules, &error)) {
                    std::cerr << "[obs] bad alert rules: " << error << '\n';
                }
            }
            if (monitor_config_.tick_seconds <= 0) {
                monitor_config_.tick_seconds = 0.25;
            }
            monitor_ = std::make_unique<obs::Monitor>(obs::metrics(),
                                                      monitor_config_);
            monitor_->start();
        }
    }

    ObsCli(const ObsCli&) = delete;
    ObsCli& operator=(const ObsCli&) = delete;

    ~ObsCli() { flush(); }

    /// Whether any telemetry flag was given.
    bool active() const
    {
        return !trace_path_.empty() || !metrics_path_.empty() ||
               !report_path_.empty() || monitor_ != nullptr ||
               !events_path_.empty();
    }

    /// The live monitor, or nullptr when --monitor/--prom/--alerts was
    /// not given.
    obs::Monitor* monitor() const { return monitor_.get(); }

    /// The armed flight recorder, or nullptr when --capture-failures was
    /// not given. Assign to SolverSettings::flight_recorder.
    obs::FlightRecorder* recorder() const { return recorder_.get(); }

    /// Writes the requested artifacts and disables telemetry again.
    /// Idempotent; the destructor calls it for the common case.
    void flush()
    {
        if (monitor_ != nullptr) {
            // Stop (with its final publishing sample) while metrics and
            // the event log are still live.
            obs::sync_trace_dropped_gauge();
            monitor_->stop();
            int firing = 0;
            for (const auto& alert : monitor_->alerts()) {
                if (alert.phase == obs::AlertPhase::firing) {
                    std::cout << "[obs] ALERT firing: " << alert.rule.name
                              << " (" << alert.rule.metric << " = "
                              << alert.last_value << ")\n";
                    ++firing;
                }
            }
            std::cout << "[obs] monitor: " << monitor_->ticks()
                      << " ticks, " << firing << " alerts firing";
            if (!monitor_config_.prom_path.empty()) {
                std::cout << ", exposition at "
                          << monitor_config_.prom_path;
            }
            std::cout << '\n';
            monitor_.reset();
            if (metrics_path_.empty() && report_path_.empty()) {
                obs::set_metrics_enabled(false);
            }
        }
        if (!events_path_.empty()) {
            std::cout << "[obs] " << obs::events().emitted()
                      << " events logged to " << events_path_ << '\n';
            obs::close_events();
            events_path_.clear();
        }
        if (!report_path_.empty()) {
            obs::sync_trace_dropped_gauge();
            std::map<std::string, obs::TraceSpanStats> spans;
            obs::summarize_trace_json(obs::trace().chrome_trace_json(),
                                      spans);
            const auto report =
                obs::render_solve_report(obs::metrics().snapshot(), spans);
            std::ofstream out(report_path_);
            if (out && (out << report.text)) {
                std::cout << "[obs] report written to " << report_path_
                          << '\n';
            } else {
                std::cerr << "[obs] failed to write report to "
                          << report_path_ << '\n';
            }
            report_path_.clear();
            if (metrics_path_.empty()) {
                obs::set_metrics_enabled(false);
            }
        }
        if (!trace_path_.empty()) {
            obs::set_trace_enabled(false);
            if (obs::trace().write_chrome_trace(trace_path_)) {
                std::cout << "[obs] trace written to " << trace_path_
                          << " (" << obs::trace().snapshot().size()
                          << " events)\n";
            } else {
                std::cerr << "[obs] failed to write trace to "
                          << trace_path_ << '\n';
            }
            trace_path_.clear();
        }
        if (!metrics_path_.empty()) {
            obs::sync_trace_dropped_gauge();
            obs::set_metrics_enabled(false);
            if (obs::metrics().write_json(metrics_path_)) {
                std::cout << "[obs] metrics written to " << metrics_path_
                          << '\n';
            } else {
                std::cerr << "[obs] failed to write metrics to "
                          << metrics_path_ << '\n';
            }
            metrics_path_.clear();
        }
        if (recorder_ != nullptr) {
            std::cout << "[obs] flight recorder: " << recorder_->captured()
                      << " of " << recorder_->seen()
                      << " failed systems captured under "
                      << recorder_->directory() << '\n';
            recorder_.reset();
        }
    }

private:
    std::string trace_path_;
    std::string metrics_path_;
    std::string report_path_;
    std::string events_path_;
    std::string alerts_path_;
    bool monitor_requested_ = false;
    obs::MonitorConfig monitor_config_;
    std::unique_ptr<obs::Monitor> monitor_;
    std::unique_ptr<obs::FlightRecorder> recorder_;
};

}  // namespace bsis::examples
