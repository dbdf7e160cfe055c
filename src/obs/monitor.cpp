#include "obs/monitor.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/events.hpp"

namespace bsis::obs {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Alert rules: grammar and defaults
// ---------------------------------------------------------------------

namespace {

std::string trim(const std::string& s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) {
        ++b;
    }
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) {
        --e;
    }
    return s.substr(b, e - b);
}

bool fail(std::string* error, const std::string& message)
{
    if (error != nullptr) {
        *error = message;
    }
    return false;
}

/// Compares `value` against the rule's threshold.
bool compare(AlertOp op, double value, double threshold)
{
    switch (op) {
    case AlertOp::gt:
        return value > threshold;
    case AlertOp::ge:
        return value >= threshold;
    case AlertOp::lt:
        return value < threshold;
    case AlertOp::le:
        return value <= threshold;
    }
    return false;
}

/// Prefix-wildcard match: a metric pattern ending in `*` matches every
/// name with that prefix; otherwise exact.
bool metric_matches(const std::string& pattern, const std::string& name)
{
    if (!pattern.empty() && pattern.back() == '*') {
        return name.compare(0, pattern.size() - 1, pattern, 0,
                            pattern.size() - 1) == 0;
    }
    return name == pattern;
}

}  // namespace

bool parse_alert_rule(const std::string& line, AlertRule& out,
                      std::string* error)
{
    const auto colon = line.find(':');
    if (colon == std::string::npos) {
        return fail(error, "missing ':' after the rule name");
    }
    AlertRule rule;
    rule.name = trim(line.substr(0, colon));
    if (rule.name.empty()) {
        return fail(error, "empty rule name");
    }
    std::string rest = trim(line.substr(colon + 1));

    const auto open = rest.find('(');
    const auto close = rest.find(')', open == std::string::npos ? 0 : open);
    if (open == std::string::npos || close == std::string::npos) {
        return fail(error, "expected <func>(<metric>)");
    }
    const std::string func = trim(rest.substr(0, open));
    rule.metric = trim(rest.substr(open + 1, close - open - 1));
    if (rule.metric.empty()) {
        return fail(error, "empty metric name");
    }
    if (func == "value") {
        rule.func = AlertFunc::value;
    } else if (func == "rate") {
        rule.func = AlertFunc::rate;
    } else if (func == "absent") {
        rule.func = AlertFunc::absent;
    } else {
        return fail(error, "unknown function '" + func +
                               "' (value | rate | absent)");
    }
    rest = trim(rest.substr(close + 1));

    if (rule.func != AlertFunc::absent) {
        // <op> <threshold>
        std::istringstream is(rest);
        std::string op;
        if (!(is >> op)) {
            return fail(error, "expected comparison operator");
        }
        if (op == ">") {
            rule.op = AlertOp::gt;
        } else if (op == ">=") {
            rule.op = AlertOp::ge;
        } else if (op == "<") {
            rule.op = AlertOp::lt;
        } else if (op == "<=") {
            rule.op = AlertOp::le;
        } else {
            return fail(error, "unknown operator '" + op + "'");
        }
        if (!(is >> rule.threshold)) {
            return fail(error, "expected numeric threshold");
        }
        std::string tail;
        std::getline(is, tail);
        rest = trim(tail);
    }

    if (!rest.empty()) {
        // for <seconds>[s]
        std::istringstream is(rest);
        std::string kw;
        std::string dur;
        if (!(is >> kw >> dur) || kw != "for") {
            return fail(error, "expected 'for <seconds>s'");
        }
        if (!dur.empty() && dur.back() == 's') {
            dur.pop_back();
        }
        char* end = nullptr;
        rule.for_seconds = std::strtod(dur.c_str(), &end);
        if (end == dur.c_str() || *end != '\0' || rule.for_seconds < 0) {
            return fail(error, "bad duration '" + dur + "'");
        }
        std::string extra;
        if (is >> extra) {
            return fail(error, "trailing garbage '" + extra + "'");
        }
    } else if (rule.func == AlertFunc::absent) {
        return fail(error, "absent rules need 'for <seconds>s'");
    }
    out = std::move(rule);
    return true;
}

bool load_alert_rules(const std::string& path, std::vector<AlertRule>& out,
                      std::string* error)
{
    std::ifstream in(path);
    if (!in) {
        return fail(error, "cannot open rule file " + path);
    }
    std::string line;
    int lineno = 0;
    std::vector<AlertRule> rules;
    while (std::getline(in, line)) {
        ++lineno;
        const auto hash = line.find('#');
        if (hash != std::string::npos) {
            line = line.substr(0, hash);
        }
        line = trim(line);
        if (line.empty()) {
            continue;
        }
        AlertRule rule;
        std::string why;
        if (!parse_alert_rule(line, rule, &why)) {
            return fail(error, path + ":" + std::to_string(lineno) + ": " +
                                   why);
        }
        rules.push_back(std::move(rule));
    }
    out = std::move(rules);
    return true;
}

std::vector<AlertRule> default_alert_rules()
{
    // The for-durations assume the default 250 ms tick: two consecutive
    // bad ticks fire, one never does.
    std::vector<AlertRule> rules;
    const auto rate_rule = [](const char* name, const char* metric) {
        AlertRule r;
        r.name = name;
        r.func = AlertFunc::rate;
        r.metric = metric;
        r.op = AlertOp::gt;
        r.threshold = 0;
        r.for_seconds = 0.5;
        return r;
    };
    rules.push_back(rate_rule("solve_failures", "solve.fail.*"));
    rules.push_back(rate_rule("gpusim_failures", "gpusim.fail.*"));
    rules.push_back(rate_rule("drift_alarms", "obs.drift.alarms"));
    AlertRule drops;
    drops.name = "trace_drops";
    drops.func = AlertFunc::value;
    drops.metric = "obs.trace.dropped";
    drops.op = AlertOp::gt;
    drops.threshold = 0;
    drops.for_seconds = 0;
    rules.push_back(drops);
    return rules;
}

// ---------------------------------------------------------------------
// Prometheus text format
// ---------------------------------------------------------------------

std::string prometheus_name(const std::string& metric)
{
    std::string out = "bsis_";
    out.reserve(metric.size() + 5);
    for (const char c : metric) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    return out;
}

namespace {

/// HELP text / label-value escaping of the exposition format.
void prom_escape(std::ostream& os, const std::string& s, bool label_value)
{
    for (const char c : s) {
        if (c == '\\') {
            os << "\\\\";
        } else if (c == '\n') {
            os << "\\n";
        } else if (label_value && c == '"') {
            os << "\\\"";
        } else {
            os << c;
        }
    }
}

void prom_number(std::ostream& os, double v)
{
    if (std::isnan(v)) {
        os << "NaN";
    } else if (std::isinf(v)) {
        os << (v > 0 ? "+Inf" : "-Inf");
    } else {
        os << v;
    }
}

}  // namespace

const PromSample* PromDocument::find(const std::string& name,
                                     const std::string& label_key,
                                     const std::string& label_value) const
{
    for (const auto& s : samples) {
        if (s.name != name) {
            continue;
        }
        if (label_key.empty()) {
            return &s;
        }
        const auto it = s.labels.find(label_key);
        if (it != s.labels.end() && it->second == label_value) {
            return &s;
        }
    }
    return nullptr;
}

double PromDocument::value(const std::string& name, double fallback) const
{
    const auto* s = find(name);
    return s == nullptr ? fallback : s->value;
}

bool parse_prometheus_text(const std::string& text, PromDocument& out)
{
    PromDocument doc;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) {
            continue;
        }
        if (line[0] == '#') {
            std::istringstream ls(line);
            std::string hash;
            std::string kind;
            std::string name;
            ls >> hash >> kind >> name;
            if (kind == "HELP" || kind == "TYPE") {
                std::string rest;
                std::getline(ls, rest);
                (kind == "HELP" ? doc.help : doc.type)[name] = trim(rest);
            }
            continue;
        }
        PromSample sample;
        std::size_t pos = 0;
        while (pos < line.size() && line[pos] != '{' && line[pos] != ' ' &&
               line[pos] != '\t') {
            ++pos;
        }
        sample.name = line.substr(0, pos);
        if (sample.name.empty()) {
            return false;
        }
        if (pos < line.size() && line[pos] == '{') {
            ++pos;
            while (pos < line.size() && line[pos] != '}') {
                std::size_t eq = line.find('=', pos);
                if (eq == std::string::npos || eq + 1 >= line.size() ||
                    line[eq + 1] != '"') {
                    return false;
                }
                const std::string key = trim(line.substr(pos, eq - pos));
                std::size_t vpos = eq + 2;
                std::string value;
                while (vpos < line.size() && line[vpos] != '"') {
                    if (line[vpos] == '\\' && vpos + 1 < line.size()) {
                        ++vpos;
                        if (line[vpos] == 'n') {
                            value += '\n';
                        } else {
                            value += line[vpos];
                        }
                    } else {
                        value += line[vpos];
                    }
                    ++vpos;
                }
                if (vpos >= line.size()) {
                    return false;
                }
                sample.labels[key] = value;
                pos = vpos + 1;
                if (pos < line.size() && line[pos] == ',') {
                    ++pos;
                }
            }
            if (pos >= line.size()) {
                return false;
            }
            ++pos;  // '}'
        }
        const std::string value_text = trim(line.substr(pos));
        if (value_text == "NaN") {
            sample.value = std::nan("");
        } else if (value_text == "+Inf") {
            sample.value = std::numeric_limits<double>::infinity();
        } else if (value_text == "-Inf") {
            sample.value = -std::numeric_limits<double>::infinity();
        } else {
            char* end = nullptr;
            sample.value = std::strtod(value_text.c_str(), &end);
            if (end == value_text.c_str() || *end != '\0') {
                return false;
            }
        }
        doc.samples.push_back(std::move(sample));
    }
    out = std::move(doc);
    return true;
}

bool load_prometheus_file(const std::string& path, PromDocument& out)
{
    std::ifstream in(path);
    if (!in) {
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse_prometheus_text(buf.str(), out);
}

// ---------------------------------------------------------------------
// Monitor
// ---------------------------------------------------------------------

Monitor::Monitor(MetricsRegistry& registry, MonitorConfig config)
    : registry_(registry), config_(std::move(config))
{
    if (config_.rules.empty() && config_.use_default_rules) {
        config_.rules = default_alert_rules();
    }
    alerts_.reserve(config_.rules.size());
    for (const auto& rule : config_.rules) {
        AlertStatus status;
        status.rule = rule;
        alerts_.push_back(std::move(status));
    }
    // Register the alert counters up front so dashboards see a stable
    // metric set even before the first transition.
    registry_.counter("obs.alerts.fired");
    registry_.counter("obs.alerts.resolved");
    registry_.gauge("obs.alerts.firing");
}

Monitor::~Monitor() { stop(); }

// --- sampling ---------------------------------------------------------

void Monitor::sample_now() { sample_at(unix_seconds()); }

void Monitor::sample_at(double now_seconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    sample_locked(now_seconds);
}

void Monitor::sample_locked(double now)
{
    last_snap_ = registry_.snapshot();
    const MetricsSnapshot& snap = last_snap_;
    const double dt = have_last_tick_ ? std::max(0.0, now - last_tick_time_)
                                      : 0.0;

    for (const auto& c : snap.counters) {
        auto& series = counters_[c.name];
        const double total = static_cast<double>(c.value);
        if (!series.primed) {
            // First sight establishes the baseline; a rate needs two
            // ticks. reset_values() shows up as a negative delta and
            // re-primes instead of emitting a bogus negative rate.
            series.last_total = total;
            series.primed = true;
            series.last_rate = 0;
            continue;
        }
        const double delta = total - series.last_total;
        series.last_total = total;
        if (delta < 0) {
            series.last_rate = 0;
            continue;
        }
        series.last_rate = dt > 0 ? delta / dt : 0.0;
        series.has_rate = true;
    }

    evaluate_alerts_locked(snap, now);
    ++ticks_;
    last_tick_time_ = now;
    have_last_tick_ = true;

    // Render the exposition eagerly only when the promfile consumes it
    // every tick. Otherwise just mark it stale: prometheus_text()
    // re-renders on demand, so a bare `--monitor` run does not pay string
    // building on every tick.
    if (!config_.prom_path.empty()) {
        prom_text_ = render_prometheus_locked(snap, now);
        prom_stale_ = false;
        write_prom_file_locked();
    } else {
        prom_stale_ = true;
    }
}

// --- alert evaluation -------------------------------------------------

double Monitor::eval_rule_locked(const AlertRule& rule,
                                 const MetricsSnapshot& snap,
                                 bool& present) const
{
    present = false;
    double value = 0;
    if (rule.func == AlertFunc::rate) {
        for (const auto& c : snap.counters) {
            if (metric_matches(rule.metric, c.name)) {
                present = true;
                const auto it = counters_.find(c.name);
                if (it != counters_.end() && it->second.primed) {
                    value += it->second.last_rate;
                }
            }
        }
        return value;
    }
    // value / absent: counters by total, gauges by last value, histograms
    // by p95.
    for (const auto& c : snap.counters) {
        if (metric_matches(rule.metric, c.name)) {
            present = true;
            value += static_cast<double>(c.value);
        }
    }
    for (const auto& g : snap.gauges) {
        if (g.set && metric_matches(rule.metric, g.name)) {
            present = true;
            value += g.value;
        }
    }
    for (const auto& h : snap.histograms) {
        if (h.summary.count > 0 && metric_matches(rule.metric, h.name)) {
            present = true;
            value += h.summary.p95;
        }
    }
    return value;
}

void Monitor::evaluate_alerts_locked(const MetricsSnapshot& snap,
                                     double now)
{
    int firing_count = 0;
    for (auto& alert : alerts_) {
        const auto& rule = alert.rule;
        bool present = false;
        const double value = eval_rule_locked(rule, snap, present);
        const bool cond = rule.func == AlertFunc::absent
                              ? !present
                              : compare(rule.op, value, rule.threshold);
        alert.last_value = value;
        alert.condition = cond;

        const auto fire = [&] {
            alert.phase = AlertPhase::firing;
            alert.since = now;
            ++alert.fired;
            registry_.add_named("obs.alerts.fired");
            if (events_enabled()) {
                events().emit("alert.firing",
                              {field("alert", rule.name),
                               field("metric", rule.metric),
                               field("value", value),
                               field("threshold", rule.threshold)});
            }
        };
        const auto resolve = [&] {
            alert.phase = AlertPhase::ok;
            alert.since = now;
            ++alert.resolved;
            registry_.add_named("obs.alerts.resolved");
            if (events_enabled()) {
                events().emit("alert.resolved",
                              {field("alert", rule.name),
                               field("metric", rule.metric),
                               field("value", value)});
            }
        };

        switch (alert.phase) {
        case AlertPhase::ok:
            if (cond) {
                if (rule.for_seconds <= 0) {
                    fire();
                } else {
                    alert.phase = AlertPhase::pending;
                    alert.since = now;
                }
            }
            break;
        case AlertPhase::pending:
            if (!cond) {
                alert.phase = AlertPhase::ok;
                alert.since = now;
            } else if (now - alert.since >= rule.for_seconds) {
                fire();
            }
            break;
        case AlertPhase::firing:
            if (cond) {
                alert.clear_since = -1;
            } else {
                if (alert.clear_since < 0) {
                    alert.clear_since = now;
                }
                if (rule.for_seconds <= 0 ||
                    now - alert.clear_since >= rule.for_seconds) {
                    alert.clear_since = -1;
                    resolve();
                }
            }
            break;
        }
        firing_count += alert.phase == AlertPhase::firing ? 1 : 0;
    }
    registry_.set_named("obs.alerts.firing",
                        static_cast<double>(firing_count));
}

// --- exposition -------------------------------------------------------

std::string Monitor::render_prometheus_locked(const MetricsSnapshot& snap,
                                              double now) const
{
    std::ostringstream os;
    os.precision(12);

    const auto header = [&](const std::string& name, const char* type,
                            const std::string& help) {
        os << "# HELP " << name << " ";
        prom_escape(os, help, false);
        os << "\n# TYPE " << name << " " << type << "\n";
    };

    // Monitor meta first so consumers can detect staleness.
    header("bsis_monitor_ticks", "counter", "sampler ticks so far");
    os << "bsis_monitor_ticks " << ticks_ << "\n";
    header("bsis_monitor_tick_seconds", "gauge",
           "configured sampler period");
    os << "bsis_monitor_tick_seconds " << config_.tick_seconds << "\n";
    header("bsis_monitor_unix_time", "gauge",
           "unix time of this exposition");
    os << "bsis_monitor_unix_time " << now << "\n";

    for (const auto& c : snap.counters) {
        const std::string name = prometheus_name(c.name);
        header(name, "counter", c.name);
        os << name << " " << c.value << "\n";
        const auto it = counters_.find(c.name);
        if (it != counters_.end() && it->second.has_rate) {
            header(name + "_per_sec", "gauge",
                   "per-second rate of " + c.name + " over the last tick");
            os << name << "_per_sec ";
            prom_number(os, it->second.last_rate);
            os << "\n";
        }
    }
    for (const auto& g : snap.gauges) {
        if (!g.set) {
            continue;
        }
        const std::string name = prometheus_name(g.name);
        header(name, "gauge", g.name);
        os << name << " ";
        prom_number(os, g.value);
        os << "\n";
    }
    for (const auto& h : snap.histograms) {
        if (h.summary.count == 0) {
            continue;
        }
        const std::string name = prometheus_name(h.name);
        header(name, "summary", h.name);
        os << name << "{quantile=\"0.5\"} ";
        prom_number(os, h.summary.p50);
        os << "\n" << name << "{quantile=\"0.95\"} ";
        prom_number(os, h.summary.p95);
        os << "\n" << name << "_sum ";
        prom_number(os, h.summary.sum);
        os << "\n" << name << "_count " << h.summary.count << "\n";
        header(name + "_max", "gauge", "max of " + h.name);
        os << name << "_max ";
        prom_number(os, h.summary.max);
        os << "\n";
    }

    header("bsis_alert_firing", "gauge",
           "1 while the named alert rule is firing");
    int firing_count = 0;
    for (const auto& alert : alerts_) {
        os << "bsis_alert_firing{alert=\"";
        prom_escape(os, alert.rule.name, true);
        os << "\"} " << (alert.phase == AlertPhase::firing ? 1 : 0)
           << "\n";
        firing_count += alert.phase == AlertPhase::firing ? 1 : 0;
    }
    header("bsis_alerts_firing", "gauge", "alert rules currently firing");
    os << "bsis_alerts_firing " << firing_count << "\n";
    return os.str();
}

void Monitor::write_prom_file_locked() const
{
    if (config_.prom_path.empty()) {
        return;
    }
    // Atomic publish: scrape-by-file consumers (obs_top) must never read
    // a half-written exposition.
    const std::string tmp = config_.prom_path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out || !(out << prom_text_)) {
            return;
        }
    }
    std::error_code ec;
    fs::rename(tmp, config_.prom_path, ec);
}

// --- accessors --------------------------------------------------------

std::int64_t Monitor::ticks() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return ticks_;
}

std::string Monitor::prometheus_text() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (prom_stale_) {
        prom_text_ = render_prometheus_locked(last_snap_, last_tick_time_);
        prom_stale_ = false;
    }
    return prom_text_;
}

std::vector<AlertStatus> Monitor::alerts() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return alerts_;
}

int Monitor::firing() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    int count = 0;
    for (const auto& alert : alerts_) {
        count += alert.phase == AlertPhase::firing ? 1 : 0;
    }
    return count;
}

bool Monitor::running() const
{
    std::lock_guard<std::mutex> lock(stop_mutex_);
    return running_;
}

// --- sampler thread --------------------------------------------------

void Monitor::start()
{
    {
        std::lock_guard<std::mutex> lock(stop_mutex_);
        if (running_) {
            return;
        }
        running_ = true;
        stop_requested_ = false;
    }
    sampler_ = std::thread([this] { run_sampler(); });
}

void Monitor::stop()
{
    {
        std::lock_guard<std::mutex> lock(stop_mutex_);
        if (!running_) {
            return;
        }
        stop_requested_ = true;
    }
    stop_cv_.notify_all();
    if (sampler_.joinable()) {
        sampler_.join();
    }
    // One final sample so a short run still publishes its tail (and the
    // promfile reflects the run's end state).
    sample_now();
    std::lock_guard<std::mutex> lock(stop_mutex_);
    running_ = false;
}

void Monitor::run_sampler()
{
    const auto tick = std::chrono::duration<double>(
        std::max(0.001, config_.tick_seconds));
    std::unique_lock<std::mutex> lock(stop_mutex_);
    while (!stop_requested_) {
        if (stop_cv_.wait_for(lock, tick,
                              [this] { return stop_requested_; })) {
            break;
        }
        lock.unlock();
        sample_now();
        lock.lock();
    }
}

}  // namespace bsis::obs
