// Observability tier (`obs` ctest label): the metrics registry, the
// Chrome-trace session, the convergence-history recorder, and their
// integration into the three execution paths (scalar OpenMP, SIMD
// batch-lockstep, simulated GPU).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/solver.hpp"
#include "exec/executor.hpp"
#include "gpusim/profile.hpp"
#include "gpusim/scheduler.hpp"
#include "matrix/conversions.hpp"
#include "matrix/stencil.hpp"
#include "obs/convergence.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace bsis {
namespace {

// ---------------------------------------------------------------------
// Minimal JSON parser, just enough to validate the emitted documents.
// ---------------------------------------------------------------------

struct JsonValue {
    enum class Type { null, boolean, number, string, array, object };
    Type type = Type::null;
    bool boolean = false;
    double number = 0;
    std::string string_value;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    const JsonValue* find(const std::string& key) const
    {
        for (const auto& [k, v] : object) {
            if (k == key) {
                return &v;
            }
        }
        return nullptr;
    }
};

class JsonParser {
public:
    explicit JsonParser(const std::string& text) : text_(text) {}

    /// Parses the whole document; returns false on any syntax error or
    /// trailing garbage.
    bool parse(JsonValue& out)
    {
        pos_ = 0;
        if (!parse_value(out)) {
            return false;
        }
        skip_ws();
        return pos_ == text_.size();
    }

private:
    void skip_ws()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    bool consume(char c)
    {
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool parse_string(std::string& out)
    {
        skip_ws();
        if (pos_ >= text_.size() || text_[pos_] != '"') {
            return false;
        }
        ++pos_;
        out.clear();
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\') {
                if (pos_ >= text_.size()) {
                    return false;
                }
                const char esc = text_[pos_++];
                switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u':
                    if (pos_ + 4 > text_.size()) {
                        return false;
                    }
                    pos_ += 4;  // validated documents stay ASCII
                    out += '?';
                    break;
                default: return false;
                }
            } else {
                out += c;
            }
        }
        if (pos_ < text_.size() && text_[pos_] == '"') {
            ++pos_;
            return true;
        }
        return false;
    }

    bool parse_value(JsonValue& out)
    {
        skip_ws();
        if (pos_ >= text_.size()) {
            return false;
        }
        const char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            out.type = JsonValue::Type::object;
            skip_ws();
            if (consume('}')) {
                return true;
            }
            while (true) {
                std::string key;
                JsonValue value;
                if (!parse_string(key) || !consume(':') ||
                    !parse_value(value)) {
                    return false;
                }
                out.object.emplace_back(std::move(key), std::move(value));
                if (consume(',')) {
                    continue;
                }
                return consume('}');
            }
        }
        if (c == '[') {
            ++pos_;
            out.type = JsonValue::Type::array;
            skip_ws();
            if (consume(']')) {
                return true;
            }
            while (true) {
                JsonValue value;
                if (!parse_value(value)) {
                    return false;
                }
                out.array.push_back(std::move(value));
                if (consume(',')) {
                    continue;
                }
                return consume(']');
            }
        }
        if (c == '"') {
            out.type = JsonValue::Type::string;
            return parse_string(out.string_value);
        }
        if (text_.compare(pos_, 4, "true") == 0) {
            out.type = JsonValue::Type::boolean;
            out.boolean = true;
            pos_ += 4;
            return true;
        }
        if (text_.compare(pos_, 5, "false") == 0) {
            out.type = JsonValue::Type::boolean;
            out.boolean = false;
            pos_ += 5;
            return true;
        }
        if (text_.compare(pos_, 4, "null") == 0) {
            out.type = JsonValue::Type::null;
            pos_ += 4;
            return true;
        }
        char* end = nullptr;
        out.number = std::strtod(text_.c_str() + pos_, &end);
        if (end == text_.c_str() + pos_) {
            return false;
        }
        out.type = JsonValue::Type::number;
        pos_ = static_cast<std::size_t>(end - text_.c_str());
        return true;
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

bool parse_json(const std::string& text, JsonValue& out)
{
    return JsonParser(text).parse(out);
}

// ---------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------

TEST(Metrics, CountersGaugesHistogramsRoundTrip)
{
    obs::MetricsRegistry reg;
    const auto c = reg.counter("solve.batches");
    const auto g = reg.gauge("solve.wall");
    const auto h = reg.histogram("solve.iters");
    reg.add(c);
    reg.add(c, 4);
    reg.set(g, 0.5);
    reg.set(g, 2.5);
    for (int i = 1; i <= 100; ++i) {
        reg.observe(h, static_cast<double>(i));
    }
    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.counter("solve.batches"), 5);
    EXPECT_TRUE(snap.gauge_set("solve.wall"));
    EXPECT_DOUBLE_EQ(snap.gauge("solve.wall"), 2.5);
    const auto summary = snap.histogram("solve.iters");
    EXPECT_EQ(summary.count, 100);
    EXPECT_DOUBLE_EQ(summary.sum, 5050.0);
    EXPECT_DOUBLE_EQ(summary.max, 100.0);
    EXPECT_NEAR(summary.mean(), 50.5, 1e-12);
    EXPECT_NEAR(summary.p50, 50.0, 2.0);
    EXPECT_NEAR(summary.p95, 95.0, 2.0);
}

TEST(Metrics, HistogramQuantileEdgeCases)
{
    obs::MetricsRegistry reg;

    // Zero samples: everything is the neutral zero.
    const auto h0 = reg.histogram("empty");
    (void)h0;
    const auto empty = reg.snapshot().histogram("empty");
    EXPECT_EQ(empty.count, 0);
    EXPECT_DOUBLE_EQ(empty.p50, 0.0);
    EXPECT_DOUBLE_EQ(empty.p95, 0.0);

    // One sample: every quantile IS that sample.
    const auto h1 = reg.histogram("one");
    reg.observe(h1, 42.0);
    const auto one = reg.snapshot().histogram("one");
    EXPECT_EQ(one.count, 1);
    EXPECT_DOUBLE_EQ(one.p50, 42.0);
    EXPECT_DOUBLE_EQ(one.p95, 42.0);
    EXPECT_DOUBLE_EQ(one.max, 42.0);

    // Two samples: type-7 linear interpolation between them.
    const auto h2 = reg.histogram("two");
    reg.observe(h2, 1.0);
    reg.observe(h2, 3.0);
    const auto two = reg.snapshot().histogram("two");
    EXPECT_DOUBLE_EQ(two.p50, 2.0);   // 1 + 0.50 * (3 - 1)
    EXPECT_DOUBLE_EQ(two.p95, 2.9);   // 1 + 0.95 * (3 - 1)

    // All-equal samples: quantiles are exact, no interpolation artifact.
    const auto he = reg.histogram("equal");
    for (int i = 0; i < 17; ++i) {
        reg.observe(he, 5.0);
    }
    const auto equal = reg.snapshot().histogram("equal");
    EXPECT_DOUBLE_EQ(equal.p50, 5.0);
    EXPECT_DOUBLE_EQ(equal.p95, 5.0);
}

TEST(Metrics, RegistrationIsIdempotentAndKindCollisionsThrow)
{
    obs::MetricsRegistry reg;
    const auto a = reg.counter("x");
    const auto b = reg.counter("x");
    EXPECT_EQ(a, b);
    EXPECT_NE(reg.counter("y"), a);
    EXPECT_THROW(reg.gauge("x"), std::runtime_error);
    EXPECT_THROW(reg.histogram("x"), std::runtime_error);
}

TEST(Metrics, ShardedRecordingMergesExactlyAcrossThreads)
{
    obs::MetricsRegistry reg;
    const auto c = reg.counter("hits");
    const auto h = reg.histogram("samples");
    constexpr int threads = 4;
    constexpr int per_thread = 20000;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&reg, c, h] {
            for (int i = 0; i < per_thread; ++i) {
                reg.add(c);
                reg.observe(h, 1.0);
            }
        });
    }
    for (auto& th : pool) {
        th.join();
    }
    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.counter("hits"), threads * per_thread);
    const auto summary = snap.histogram("samples");
    EXPECT_EQ(summary.count, threads * per_thread);
    EXPECT_DOUBLE_EQ(summary.sum, 1.0 * threads * per_thread);
}

TEST(Metrics, GaugeMergeKeepsTheLatestWriteAcrossShards)
{
    obs::MetricsRegistry reg;
    const auto g = reg.gauge("last");
    std::thread([&reg, g] { reg.set(g, 1.0); }).join();
    std::thread([&reg, g] { reg.set(g, 7.0); }).join();
    EXPECT_DOUBLE_EQ(reg.snapshot().gauge("last"), 7.0);
}

TEST(Metrics, HistogramDecimationKeepsExactCountSumMax)
{
    obs::MetricsRegistry reg;
    const auto h = reg.histogram("big");
    const int n = 3 * obs::MetricsRegistry::histogram_shard_capacity;
    double sum = 0;
    for (int i = 0; i < n; ++i) {
        reg.observe(h, static_cast<double>(i % 1000));
        sum += i % 1000;
    }
    const auto summary = reg.snapshot().histogram("big");
    EXPECT_EQ(summary.count, n);
    EXPECT_DOUBLE_EQ(summary.sum, sum);
    EXPECT_DOUBLE_EQ(summary.max, 999.0);
    // Quantiles are estimates over the decimated reservoir; the uniform
    // 0..999 stream must still land in the right neighbourhood.
    EXPECT_NEAR(summary.p50, 500.0, 100.0);
    EXPECT_GT(summary.p95, summary.p50);
}

TEST(Metrics, ResetValuesKeepsRegistrations)
{
    obs::MetricsRegistry reg;
    const auto c = reg.counter("kept");
    reg.add(c, 9);
    reg.reset_values();
    auto snap = reg.snapshot();
    EXPECT_EQ(snap.counter("kept"), 0);
    EXPECT_EQ(reg.counter("kept"), c);  // same id after reset
    reg.add(c, 2);
    EXPECT_EQ(reg.snapshot().counter("kept"), 2);
}

TEST(Metrics, SnapshotJsonIsValidAndComplete)
{
    obs::MetricsRegistry reg;
    reg.add_named("c1", 3);
    reg.set_named("g1", 1.25);
    reg.observe_named("h1", 2.0);
    JsonValue doc;
    ASSERT_TRUE(parse_json(reg.snapshot_json(), doc));
    ASSERT_EQ(doc.type, JsonValue::Type::object);
    const auto* counters = doc.find("counters");
    const auto* gauges = doc.find("gauges");
    const auto* histograms = doc.find("histograms");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(gauges, nullptr);
    ASSERT_NE(histograms, nullptr);
    ASSERT_NE(counters->find("c1"), nullptr);
    EXPECT_DOUBLE_EQ(counters->find("c1")->number, 3.0);
    ASSERT_NE(gauges->find("g1"), nullptr);
    EXPECT_DOUBLE_EQ(gauges->find("g1")->number, 1.25);
    const auto* h1 = histograms->find("h1");
    ASSERT_NE(h1, nullptr);
    ASSERT_NE(h1->find("count"), nullptr);
    EXPECT_DOUBLE_EQ(h1->find("count")->number, 1.0);
}

// ---------------------------------------------------------------------
// TraceSession
// ---------------------------------------------------------------------

TEST(Trace, SpansNestAndMaterializeAsContainedIntervals)
{
    obs::TraceSession session;
    session.begin("outer", "test", 1);
    session.begin("inner", "test", 2);
    session.end();
    session.end();
    auto events = session.snapshot();
    ASSERT_EQ(events.size(), 2u);
    // end() materializes innermost-first.
    const auto& inner = events[0];
    const auto& outer = events[1];
    EXPECT_STREQ(inner.name, "inner");
    EXPECT_STREQ(outer.name, "outer");
    EXPECT_GE(inner.ts_us, outer.ts_us);
    EXPECT_LE(inner.ts_us + inner.dur_us,
              outer.ts_us + outer.dur_us + 1e-9);
    EXPECT_EQ(inner.pid, obs::TraceSession::host_pid);
    EXPECT_EQ(inner.arg, 2);
}

TEST(Trace, UnmatchedEndIsIgnored)
{
    obs::TraceSession session;
    session.end();  // no open span: must not crash or emit
    session.begin("only", "test");
    session.end();
    session.end();  // extra
    EXPECT_EQ(session.snapshot().size(), 1u);
    EXPECT_EQ(session.dropped(), 0);
}

TEST(Trace, EmitHostRecordsTheCallersStampsOnItsThreadTrack)
{
    obs::TraceSession session;
    const auto start = std::chrono::steady_clock::now();
    const auto end = start + std::chrono::microseconds(250);
    session.begin("outer", "test");
    session.emit_host("leaf", "kernel", start, end);
    session.end();
    const auto events = session.snapshot();
    ASSERT_EQ(events.size(), 2u);
    const auto& leaf = events[0];
    EXPECT_STREQ(leaf.name, "leaf");
    EXPECT_STREQ(leaf.cat, "kernel");
    EXPECT_DOUBLE_EQ(leaf.dur_us, 250.0);
    EXPECT_GE(leaf.ts_us, 0.0);
    EXPECT_EQ(leaf.pid, obs::TraceSession::host_pid);
    EXPECT_EQ(leaf.tid, events[1].tid);
    EXPECT_EQ(leaf.arg, -1);
    // The leaf did not touch the open-span stack: "outer" still closed.
    EXPECT_STREQ(events[1].name, "outer");
}

TEST(Trace, ClearWhileOtherThreadsRecord)
{
    // clear() re-arms the epoch while recording threads read it; run this
    // under ThreadSanitizer to check the epoch is race-free.
    obs::TraceSession session;
    std::atomic<bool> done{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < 2; ++t) {
        writers.emplace_back([&] {
            while (!done.load()) {
                const auto start = std::chrono::steady_clock::now();
                session.emit_host("leaf", "kernel", start,
                                  std::chrono::steady_clock::now());
                session.begin("span", "test");
                session.end();
            }
        });
    }
    for (int i = 0; i < 200; ++i) {
        session.clear();
        std::this_thread::yield();
    }
    done.store(true);
    for (auto& w : writers) {
        w.join();
    }
    for (const auto& e : session.snapshot()) {
        if (std::strcmp(e.name, "leaf") == 0) {
            EXPECT_GE(e.dur_us, 0.0);
        }
    }
}

TEST(Trace, ShardCapacityBoundsRetentionAndCountsDrops)
{
    obs::TraceSession session;
    session.set_shard_capacity(8);
    for (int i = 0; i < 50; ++i) {
        session.emit_complete("e", "test", obs::TraceSession::host_pid, 0,
                              static_cast<double>(i), 1.0);
    }
    EXPECT_EQ(session.snapshot().size(), 8u);
    EXPECT_EQ(session.dropped(), 42);
    session.clear();
    EXPECT_EQ(session.snapshot().size(), 0u);
    EXPECT_EQ(session.dropped(), 0);
}

TEST(Trace, ChromeTraceJsonIsValidSortedAndComplete)
{
    obs::TraceSession session;
    session.begin("a", "test");
    session.begin("b", "test");
    session.end();
    session.end();
    // A modeled device track under its own pid.
    session.emit_complete("block", "gpusim", obs::TraceSession::device_pid,
                          3, 10.0, 5.0, 42);
    session.emit_complete("block", "gpusim", obs::TraceSession::device_pid,
                          3, 2.0, 4.0, 41);

    JsonValue doc;
    ASSERT_TRUE(parse_json(session.chrome_trace_json(), doc));
    const auto* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->type, JsonValue::Type::array);
    ASSERT_EQ(events->array.size(), 4u);
    // Sorted by (pid, tid, ts); every event is a complete event with the
    // required fields.
    std::map<std::pair<double, double>, double> last_ts;
    for (const auto& e : events->array) {
        ASSERT_EQ(e.type, JsonValue::Type::object);
        ASSERT_NE(e.find("name"), nullptr);
        ASSERT_NE(e.find("ph"), nullptr);
        EXPECT_EQ(e.find("ph")->string_value, "X");
        ASSERT_NE(e.find("ts"), nullptr);
        ASSERT_NE(e.find("dur"), nullptr);
        ASSERT_NE(e.find("pid"), nullptr);
        ASSERT_NE(e.find("tid"), nullptr);
        const std::pair<double, double> track{e.find("pid")->number,
                                              e.find("tid")->number};
        const double ts = e.find("ts")->number;
        auto it = last_ts.find(track);
        if (it != last_ts.end()) {
            EXPECT_GE(ts, it->second) << "timestamps must be monotonic "
                                         "within one track";
        }
        last_ts[track] = ts;
    }
    // The device track kept both blocks, time-ordered.
    const auto& dev_first = events->array[2];
    EXPECT_DOUBLE_EQ(dev_first.find("pid")->number,
                     obs::TraceSession::device_pid);
    EXPECT_DOUBLE_EQ(dev_first.find("ts")->number, 2.0);
}

// ---------------------------------------------------------------------
// ConvergenceHistory
// ---------------------------------------------------------------------

TEST(ConvergenceHistory, RecordsTrajectoriesAndExactFinalState)
{
    obs::ConvergenceHistory history;
    EXPECT_FALSE(history.active());
    history.reset(2, 16);
    EXPECT_TRUE(history.active());
    for (int k = 0; k < 5; ++k) {
        history.record(0, k, std::pow(10.0, -k));
    }
    history.finalize(0, 5, 1e-11, true);
    history.finalize(1, 0, 0.0, false);
    ASSERT_EQ(history.points(0).size(), 5u);
    EXPECT_EQ(history.points(0).front().iteration, 0);
    EXPECT_DOUBLE_EQ(history.points(0).front().residual, 1.0);
    EXPECT_TRUE(history.finalized(0));
    EXPECT_TRUE(history.converged(0));
    EXPECT_EQ(history.final_point(0).iteration, 5);
    EXPECT_DOUBLE_EQ(history.final_point(0).residual, 1e-11);
    EXPECT_FALSE(history.converged(1));
    EXPECT_TRUE(history.points(1).empty());
}

TEST(ConvergenceHistory, DecimationBoundsMemoryAndKeepsAlignedPoints)
{
    obs::ConvergenceHistory history;
    const int capacity = 8;
    history.reset(1, capacity);
    for (int k = 0; k <= 1000; ++k) {
        history.record(0, k, 1.0 / (1.0 + k));
    }
    const auto& pts = history.points(0);
    ASSERT_LE(pts.size(), static_cast<std::size_t>(capacity));
    ASSERT_GE(pts.size(), 2u);
    const int stride = history.stride(0);
    EXPECT_GT(stride, 1);
    EXPECT_EQ(stride & (stride - 1), 0) << "stride must be a power of two";
    EXPECT_EQ(pts.front().iteration, 0);
    for (std::size_t i = 0; i < pts.size(); ++i) {
        EXPECT_EQ(pts[i].iteration % stride, 0);
        if (i > 0) {
            EXPECT_GT(pts[i].iteration, pts[i - 1].iteration);
        }
    }
}

// ---------------------------------------------------------------------
// Integration with the execution paths (global telemetry singletons).
// Tests restore the global switches so the order of tests cannot leak
// telemetry into unrelated cases.
// ---------------------------------------------------------------------

class GlobalTelemetryTest : public ::testing::Test {
protected:
    void SetUp() override { reset_all(); }
    void TearDown() override { reset_all(); }

    static void reset_all()
    {
        obs::set_metrics_enabled(false);
        obs::set_trace_enabled(false);
        obs::trace().clear();
        obs::trace().set_shard_capacity(1u << 20);
        obs::metrics().reset_values();
    }

    struct Problem {
        BatchCsr<real_type> a;
        BatchVector<real_type> b;
    };

    static Problem make_problem(size_type nbatch)
    {
        SyntheticStencilParams params;
        params.seed = 99;
        auto a = make_synthetic_batch(8, 7, StencilKind::nine_point, nbatch,
                                      params);
        BatchVector<real_type> b(nbatch, a.rows());
        Rng rng(7);
        for (size_type i = 0; i < nbatch; ++i) {
            for (auto& v : b.entry(i)) {
                v = rng.uniform(-1.0, 1.0);
            }
        }
        return {std::move(a), std::move(b)};
    }
};

TEST_F(GlobalTelemetryTest, DisabledTelemetryRecordsNothing)
{
    auto p = make_problem(4);
    SolverSettings settings;
    BatchVector<real_type> x(p.a.num_batch(), p.a.rows());
    const auto result = solve_batch(p.a, p.b, x, settings);
    EXPECT_TRUE(result.log.all_converged());
    EXPECT_FALSE(result.history.active());
    EXPECT_TRUE(obs::trace().snapshot().empty());
    const auto snap = obs::metrics().snapshot();
    EXPECT_EQ(snap.counter("solve.batches"), 0);
}

TEST_F(GlobalTelemetryTest, ScalarPathRecordsConvergenceHistory)
{
    auto p = make_problem(6);
    SolverSettings settings;
    settings.record_convergence = true;
    BatchVector<real_type> x(p.a.num_batch(), p.a.rows());
    const auto result = solve_batch(p.a, p.b, x, settings);
    ASSERT_TRUE(result.history.active());
    ASSERT_EQ(result.history.num_batch(), p.a.num_batch());
    for (size_type i = 0; i < p.a.num_batch(); ++i) {
        ASSERT_TRUE(result.history.finalized(i)) << "system " << i;
        EXPECT_EQ(result.history.converged(i), result.log.converged(i));
        EXPECT_EQ(result.history.final_point(i).iteration,
                  result.log.iterations(i));
        EXPECT_NEAR(result.history.final_point(i).residual,
                    result.log.residual_norm(i),
                    1e-12 * std::max<real_type>(
                                1.0, result.log.residual_norm(i)));
        const auto& pts = result.history.points(i);
        ASSERT_FALSE(pts.empty());
        EXPECT_EQ(pts.front().iteration, 0);
        // The trajectory ends at (or below) the tolerance it converged to.
        EXPECT_GT(pts.front().residual, 0.0);
    }
}

TEST_F(GlobalTelemetryTest, LockstepPathHistoryMatchesScalarPath)
{
    auto p = make_problem(10);
    SolverSettings settings;
    settings.record_convergence = true;
    BatchVector<real_type> x_scalar(p.a.num_batch(), p.a.rows());
    BatchVector<real_type> x_lock(p.a.num_batch(), p.a.rows());
    const auto scalar = solve_batch(p.a, p.b, x_scalar, settings);
    settings.lockstep_width = 8;
    const auto lock = solve_batch(p.a, p.b, x_lock, settings);
    ASSERT_TRUE(lock.history.active());
    for (size_type i = 0; i < p.a.num_batch(); ++i) {
        ASSERT_TRUE(lock.history.finalized(i)) << "system " << i;
        EXPECT_EQ(lock.history.converged(i), lock.log.converged(i));
        EXPECT_EQ(lock.history.final_point(i).iteration,
                  lock.log.iterations(i));
        const auto& pts = lock.history.points(i);
        ASSERT_FALSE(pts.empty());
        EXPECT_EQ(pts.front().iteration, 0);
        // Same initial residual as the scalar path records (identical
        // zero-guess start).
        EXPECT_NEAR(pts.front().residual,
                    scalar.history.points(i).front().residual,
                    1e-9 * std::max<real_type>(
                               1.0, pts.front().residual));
    }
}

TEST_F(GlobalTelemetryTest, SolveEmitsProperlyNestedPhaseSpans)
{
    obs::set_trace_enabled(true);
    auto p = make_problem(4);
    SolverSettings settings;
    BatchVector<real_type> x(p.a.num_batch(), p.a.rows());
    solve_batch(p.a, p.b, x, settings);
    settings.lockstep_width = 4;
    x.fill(real_type{0});
    solve_batch(p.a, p.b, x, settings);
    obs::set_trace_enabled(false);

    const auto events = obs::trace().snapshot();
    ASSERT_FALSE(events.empty());
    std::map<std::string, int> names;
    for (const auto& e : events) {
        names[e.name] += 1;
    }
    EXPECT_EQ(names["solve_batch"], 2);
    EXPECT_GE(names["solve_entry"], 4);
    EXPECT_GE(names["lockstep_group"], 1);
    EXPECT_GT(names["spmv"], 0);
    EXPECT_GT(names["reduction"], 0);
    EXPECT_GT(names["update"], 0);
    EXPECT_GT(names["precond_apply"], 0);

    // Spans on one host track must be properly nested: any two either
    // are disjoint or one contains the other (guaranteed by the span
    // stack; violated if begin/end ever unbalance).
    std::map<int, std::vector<const obs::TraceEvent*>> tracks;
    for (const auto& e : events) {
        tracks[e.tid].push_back(&e);
    }
    for (auto& [tid, track] : tracks) {
        std::sort(track.begin(), track.end(),
                  [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
                      return a->ts_us < b->ts_us;
                  });
        for (std::size_t i = 1; i < track.size(); ++i) {
            const auto* prev = track[i - 1];
            const auto* cur = track[i];
            const double prev_end = prev->ts_us + prev->dur_us;
            const double cur_end = cur->ts_us + cur->dur_us;
            const bool disjoint = cur->ts_us >= prev_end - 1e-6;
            const bool nested = cur_end <= prev_end + 1e-6;
            EXPECT_TRUE(disjoint || nested)
                << "overlapping spans '" << prev->name << "' and '"
                << cur->name << "' on tid " << tid;
        }
    }

    // And the serialized document round-trips as valid JSON.
    JsonValue doc;
    ASSERT_TRUE(parse_json(obs::trace().chrome_trace_json(), doc));
    ASSERT_NE(doc.find("traceEvents"), nullptr);
    EXPECT_EQ(doc.find("traceEvents")->array.size(), events.size());
}

TEST_F(GlobalTelemetryTest, SolveRecordsMetricsWhenEnabled)
{
    obs::set_metrics_enabled(true);
    auto p = make_problem(6);
    SolverSettings settings;
    BatchVector<real_type> x(p.a.num_batch(), p.a.rows());
    const auto result = solve_batch(p.a, p.b, x, settings);
    obs::set_metrics_enabled(false);

    const auto snap = obs::metrics().snapshot();
    EXPECT_EQ(snap.counter("solve.batches"), 1);
    EXPECT_EQ(snap.counter("solve.systems"), 6);
    EXPECT_EQ(snap.counter("solve.iterations"),
              result.log.total_iterations());
    EXPECT_EQ(snap.counter("solve.unconverged"), 0);
    const auto iters = snap.histogram("solve.system_iterations");
    EXPECT_EQ(iters.count, 6);
    EXPECT_DOUBLE_EQ(iters.max,
                     static_cast<double>(result.log.max_iterations()));
    EXPECT_TRUE(snap.gauge_set("solve.last_wall_seconds"));
}

TEST_F(GlobalTelemetryTest, GpuExecutorEmitsDeviceTimelineAndMetrics)
{
    obs::set_trace_enabled(true);
    obs::set_metrics_enabled(true);
    auto p = make_problem(6);
    const auto ell = to_ell(p.a);
    SolverSettings settings;
    SimGpuExecutor exec(gpusim::v100());
    BatchVector<real_type> x(p.a.num_batch(), p.a.rows());
    settings.record_convergence = true;
    const auto report = exec.solve(ell, p.b, x, settings);
    obs::set_trace_enabled(false);
    obs::set_metrics_enabled(false);

    EXPECT_TRUE(report.log.all_converged());
    EXPECT_TRUE(report.history.active());
    // Device track: one kernel_launch plus one block span per system, all
    // inside the modeled timeline.
    int blocks = 0;
    int launches = 0;
    for (const auto& e : obs::trace().snapshot()) {
        if (e.pid != obs::TraceSession::device_pid) {
            continue;
        }
        if (std::string(e.name) == "block") {
            ++blocks;
            EXPECT_GE(e.ts_us, 0.0);
            EXPECT_GT(e.dur_us, 0.0);
            EXPECT_LE((e.ts_us + e.dur_us) * 1e-6,
                      report.kernel_seconds * (1.0 + 1e-9));
        } else if (std::string(e.name) == "kernel_launch") {
            ++launches;
        }
    }
    EXPECT_EQ(blocks, 6);
    EXPECT_EQ(launches, 1);

    const auto snap = obs::metrics().snapshot();
    EXPECT_EQ(snap.counter("gpusim.solves"), 1);
    EXPECT_TRUE(snap.gauge_set("gpusim.kernel_seconds"));
    ASSERT_TRUE(report.profiled);
    EXPECT_NEAR(snap.gauge("gpusim.warp_utilization"),
                report.profile.warp_utilization(), 1e-12);
    EXPECT_NEAR(snap.gauge("gpusim.l1_hit_rate"),
                report.profile.l1_hit_rate(), 1e-12);
}

TEST_F(GlobalTelemetryTest, LiveProfileAgreesWithSharedHelperWithin1Percent)
{
    // The executor's live profile and the Table II bench both route
    // through gpusim/profile.{hpp,cpp}; recomputing with the executor's
    // own inputs must reproduce its numbers (acceptance bound: 1%).
    auto p = make_problem(8);
    const auto ell = to_ell(p.a);
    SolverSettings settings;
    SimGpuExecutor exec(gpusim::v100());
    exec.set_profile(true);  // force the profile without global telemetry
    BatchVector<real_type> x(p.a.num_batch(), p.a.rows());
    const auto report = exec.solve(ell, p.b, x, settings);
    ASSERT_TRUE(report.profiled);
    EXPECT_EQ(report.profile.blocks_traced,
              SimGpuExecutor::profile_sample_blocks);

    const std::vector<index_type> empty;
    const gpusim::ProfilePattern pattern{
        gpusim::TracedFormat::ell, &empty,           &empty,
        &ell.col_idxs(),           ell.nnz_per_row(), ell.stored_per_entry()};
    const auto sizing = gpusim::profile_cache_sizing(
        exec.device(), report.storage, report.block_threads,
        static_cast<size_type>(ell.col_idxs().size()));
    std::vector<int> block_iters;
    for (size_type blk = 0;
         blk < std::min<size_type>(SimGpuExecutor::profile_sample_blocks,
                                   p.a.num_batch());
         ++blk) {
        block_iters.push_back(std::max(1, report.log.iterations(blk)));
    }
    const auto reference = gpusim::profile_bicgstab(
        exec.device(), report.storage, report.block_threads, pattern,
        p.a.rows(), block_iters, sizing);

    const auto near_rel = [](double a, double b) {
        return std::abs(a - b) <= 0.01 * std::max({std::abs(a),
                                                   std::abs(b), 1e-12});
    };
    EXPECT_TRUE(near_rel(report.profile.warp_utilization(),
                         reference.warp_utilization()))
        << report.profile.warp_utilization() << " vs "
        << reference.warp_utilization();
    EXPECT_TRUE(near_rel(report.profile.l1_hit_rate(),
                         reference.l1_hit_rate()))
        << report.profile.l1_hit_rate() << " vs "
        << reference.l1_hit_rate();
    EXPECT_TRUE(near_rel(report.profile.l2_hit_rate(),
                         reference.l2_hit_rate()))
        << report.profile.l2_hit_rate() << " vs "
        << reference.l2_hit_rate();
}

// ---------------------------------------------------------------------
// Scheduler timeline (the trace exporter's device track comes from it).
// ---------------------------------------------------------------------

TEST(SchedulerTimeline, MatchesScheduleBlocksAndPlacesBlocksConsistently)
{
    std::vector<double> durations;
    Rng rng(3);
    for (int i = 0; i < 37; ++i) {
        durations.push_back(rng.uniform(0.5, 2.0));
    }
    for (const auto policy : {gpusim::SchedulingPolicy::greedy_dynamic,
                              gpusim::SchedulingPolicy::wave_quantized}) {
        const int slots = 5;
        const auto summary =
            gpusim::schedule_blocks(durations, slots, policy);
        const auto timeline =
            gpusim::schedule_blocks_timeline(durations, slots, policy);
        EXPECT_DOUBLE_EQ(timeline.makespan_seconds,
                         summary.makespan_seconds);
        EXPECT_EQ(timeline.num_waves, summary.num_waves);
        ASSERT_EQ(timeline.blocks.size(), durations.size());
        double max_end = 0;
        std::map<int, std::vector<std::pair<double, double>>> by_slot;
        for (std::size_t i = 0; i < timeline.blocks.size(); ++i) {
            const auto& blk = timeline.blocks[i];
            EXPECT_NEAR(blk.end_seconds - blk.start_seconds, durations[i],
                        1e-12);
            EXPECT_GE(blk.slot, 0);
            EXPECT_LT(blk.slot, slots);
            by_slot[blk.slot].emplace_back(blk.start_seconds,
                                           blk.end_seconds);
            max_end = std::max(max_end, blk.end_seconds);
        }
        EXPECT_NEAR(max_end, timeline.makespan_seconds, 1e-12);
        // No two blocks overlap on one slot.
        for (auto& [slot, intervals] : by_slot) {
            std::sort(intervals.begin(), intervals.end());
            for (std::size_t i = 1; i < intervals.size(); ++i) {
                EXPECT_GE(intervals[i].first,
                          intervals[i - 1].second - 1e-12)
                    << "slot " << slot << " double-booked";
            }
        }
    }
}

TEST(SchedulerTimeline, WaveQuantizedStartsWholeWavesTogether)
{
    const std::vector<double> durations{3.0, 1.0, 2.0, 5.0, 1.0};
    const auto timeline = gpusim::schedule_blocks_timeline(
        durations, 2, gpusim::SchedulingPolicy::wave_quantized);
    ASSERT_EQ(timeline.blocks.size(), 5u);
    EXPECT_EQ(timeline.num_waves, 3);
    // Wave 0: blocks 0,1 start at 0; wave 1 starts at max(3,1)=3;
    // wave 2 at 3+max(2,5)=8; makespan 8+1=9.
    EXPECT_DOUBLE_EQ(timeline.blocks[0].start_seconds, 0.0);
    EXPECT_DOUBLE_EQ(timeline.blocks[1].start_seconds, 0.0);
    EXPECT_DOUBLE_EQ(timeline.blocks[2].start_seconds, 3.0);
    EXPECT_DOUBLE_EQ(timeline.blocks[3].start_seconds, 3.0);
    EXPECT_DOUBLE_EQ(timeline.blocks[4].start_seconds, 8.0);
    EXPECT_DOUBLE_EQ(timeline.makespan_seconds, 9.0);
}

}  // namespace
}  // namespace bsis
