// Live monitoring: background sampler, Prometheus exposition, and a
// declarative alert-rule engine over MetricsRegistry.
//
// Everything the obs stack built so far is post-hoc -- snapshots, traces,
// and reports rendered after the run ends. A Picard campaign over
// thousands of batched systems runs for hours, and both the solve-service
// and online-autotuning directions need a LIVE view: a scrapeable metric
// file and alerting on the failure counters. obs::Monitor is that layer.
//
// The monitor owns a sampler thread that, on a configurable tick,
// snapshots the registry and
//   * turns counter deltas into per-second rates (only the last rate is
//     kept: the exposition and the alert rules read nothing older);
//   * evaluates the alert rules (threshold / rate / absence, with
//     for-duration hysteresis and an ok -> pending -> firing -> resolved
//     state machine) -- transitions bump the `obs.alerts.*` counters of
//     the sampled registry itself and append to the event log;
//   * renders the Prometheus text exposition (# HELP / # TYPE derived
//     from the registry; counters additionally get a `_per_sec` rate
//     gauge so file-based consumers need no PromQL) and atomically
//     rewrites the promfile, the one exposition channel.
//
// The sampler never touches solver hot paths: it reads the same registry
// snapshots every cold path reads, at a default 250 ms tick, and lives
// under the same <= 2% telemetry-overhead gate as the rest of the obs
// stack (bench_regression's monitor A/B row). Tests drive ticks
// deterministically through sample_at().
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <condition_variable>
#include <vector>

#include "obs/metrics.hpp"

namespace bsis::obs {

// ---------------------------------------------------------------------
// Alert rules
// ---------------------------------------------------------------------

/// What a rule evaluates each tick.
enum class AlertFunc {
    value,   ///< counter total / gauge last value / histogram p95
    rate,    ///< counter per-second rate over the last tick
    absent,  ///< metric missing (never recorded); op/threshold unused
};

enum class AlertOp { gt, ge, lt, le };

/// One declarative rule. Text form (one per line in a rule file):
///
///   <name>: <func>(<metric>) <op> <threshold> for <seconds>s
///
/// e.g.  solve_failures: rate(solve.fail.*) > 0 for 0.5s
///       slow_batches:   value(solve.last_wall_seconds) >= 2 for 5s
///       heartbeat:      absent(solve.batches) for 10s
///
/// A metric ending in `*` is a prefix wildcard: value/rate sum over every
/// matching counter (and gauge, for value); absent means NO match exists.
/// `for` is the hysteresis on both edges: the condition must hold that
/// long before the alert fires, and must stay clear that long before a
/// firing alert resolves -- one bad (or good) tick never flaps.
struct AlertRule {
    std::string name;
    AlertFunc func = AlertFunc::value;
    std::string metric;
    AlertOp op = AlertOp::gt;
    double threshold = 0;
    double for_seconds = 0;
};

/// Parses the one-line rule grammar above. Returns false (with a message
/// in `error` when non-null) on malformed input.
bool parse_alert_rule(const std::string& line, AlertRule& out,
                      std::string* error = nullptr);

/// Loads a rule file: one rule per line, blank lines and `#` comments
/// ignored. Returns false on unreadable file or any malformed line.
bool load_alert_rules(const std::string& path, std::vector<AlertRule>& out,
                      std::string* error = nullptr);

/// The default rule set every monitor starts with: solver and gpusim
/// failure-class counters, drift alarms, and trace-span drops.
std::vector<AlertRule> default_alert_rules();

enum class AlertPhase { ok, pending, firing };

/// Live state of one rule.
struct AlertStatus {
    AlertRule rule;
    AlertPhase phase = AlertPhase::ok;
    double last_value = 0;  ///< the evaluated input at the last tick
    bool condition = false;
    double since = 0;  ///< when the current phase was entered
    /// While firing: when the condition last went clear (< 0 while it
    /// still holds). The resolve edge of the for-duration hysteresis.
    double clear_since = -1;
    std::int64_t fired = 0;     ///< ok->firing transitions so far
    std::int64_t resolved = 0;  ///< firing->ok transitions so far
};

// ---------------------------------------------------------------------
// Prometheus text format
// ---------------------------------------------------------------------

/// One exposition sample: `name{labels} value`.
struct PromSample {
    std::string name;
    std::map<std::string, std::string> labels;
    double value = 0;
};

/// A parsed exposition document (the subset the monitor emits: # HELP,
/// # TYPE, and plain samples -- enough for obs_top and round-trip tests).
struct PromDocument {
    std::vector<PromSample> samples;
    std::map<std::string, std::string> help;  ///< metric -> HELP text
    std::map<std::string, std::string> type;  ///< metric -> TYPE

    const PromSample* find(const std::string& name,
                           const std::string& label_key = "",
                           const std::string& label_value = "") const;
    double value(const std::string& name, double fallback = 0) const;
    bool has(const std::string& name) const
    {
        return find(name) != nullptr;
    }
};

bool parse_prometheus_text(const std::string& text, PromDocument& out);

/// Reads and parses `path`; false when unreadable or malformed.
bool load_prometheus_file(const std::string& path, PromDocument& out);

/// `solve.fail.max_iters` -> `bsis_solve_fail_max_iters` (the exposition
/// name of a registry metric: `bsis_` prefix, non-[a-zA-Z0-9_:] -> `_`).
std::string prometheus_name(const std::string& metric);

// ---------------------------------------------------------------------
// Monitor
// ---------------------------------------------------------------------

struct MonitorConfig {
    /// Sampler period of the background thread (start()).
    double tick_seconds = 0.25;
    /// When non-empty, the Prometheus exposition is atomically rewritten
    /// here every tick (write to `<path>.tmp`, then rename).
    std::string prom_path;
    /// Alert rules; default_alert_rules() when empty and
    /// `use_default_rules` is set.
    std::vector<AlertRule> rules;
    bool use_default_rules = true;
};

class Monitor {
public:
    explicit Monitor(MetricsRegistry& registry, MonitorConfig config = {});
    ~Monitor();

    Monitor(const Monitor&) = delete;
    Monitor& operator=(const Monitor&) = delete;

    /// Launches the sampler thread. Idempotent.
    void start();

    /// Stops the sampler thread after one final sample, so short runs
    /// still publish their tail. Idempotent; the destructor calls it.
    void stop();

    bool running() const;

    /// One sampling tick at wall-clock now (what the background thread
    /// runs); thread-safe.
    void sample_now();

    /// One sampling tick at an explicit time -- the deterministic
    /// entry point the tests drive. Times must be non-decreasing.
    void sample_at(double now_seconds);

    std::int64_t ticks() const;

    /// The Prometheus exposition rendered at the last tick ("" before the
    /// first).
    std::string prometheus_text() const;

    /// Snapshot of every rule's live state.
    std::vector<AlertStatus> alerts() const;

    /// Rules currently in the firing phase.
    int firing() const;

    const MonitorConfig& config() const { return config_; }

private:
    struct CounterSeries {
        double last_total = 0;
        bool primed = false;  ///< first sight only records the baseline
        double last_rate = 0;
        bool has_rate = false;  ///< a delta has been timed since priming
    };

    void sample_locked(double now);
    void evaluate_alerts_locked(const MetricsSnapshot& snap, double now);
    double eval_rule_locked(const AlertRule& rule,
                            const MetricsSnapshot& snap,
                            bool& present) const;
    std::string render_prometheus_locked(const MetricsSnapshot& snap,
                                         double now) const;
    void write_prom_file_locked() const;
    void run_sampler();

    MetricsRegistry& registry_;
    MonitorConfig config_;

    mutable std::mutex mutex_;
    std::map<std::string, CounterSeries> counters_;
    std::vector<AlertStatus> alerts_;
    /// Exposition text is rendered eagerly only when a promfile consumes
    /// it every tick; otherwise the tick just marks it stale and
    /// prometheus_text() re-renders on demand from the last snapshot,
    /// keeping unconsumed `--monitor` ticks cheap.
    mutable std::string prom_text_;
    mutable bool prom_stale_ = false;
    MetricsSnapshot last_snap_;
    std::int64_t ticks_ = 0;
    double last_tick_time_ = 0;
    bool have_last_tick_ = false;

    std::thread sampler_;
    mutable std::mutex stop_mutex_;
    std::condition_variable stop_cv_;
    bool stop_requested_ = false;
    bool running_ = false;
};

}  // namespace bsis::obs
