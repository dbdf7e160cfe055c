#include "obs/attribution.hpp"

#include <algorithm>
#include <limits>
#include <mutex>

#include "obs/events.hpp"

namespace bsis::obs {

namespace {

constexpr double vb = sizeof(real_type);   // 8: value bytes
constexpr double ib = sizeof(index_type);  // 4: index bytes

/// One SpMV application of one system.
PhaseWork spmv_work(const LedgerShape& shape, LedgerFormat format)
{
    const double n = shape.rows;
    const double stored = shape.stored_nnz;
    PhaseWork w;
    switch (format) {
    case LedgerFormat::csr:
        // values + column indices + row pointers + x gather, y write.
        w.bytes_read = stored * (vb + ib) + (n + 1) * ib + n * vb;
        w.flops = 2.0 * stored;
        break;
    case LedgerFormat::ell:
    case LedgerFormat::sellp:
        // Padded values + padded column indices + x; the kernels multiply
        // the stored zeros, so the padding counts in bytes AND flops.
        // (SELL-P's slice offset array is O(n/slice) and ignored.)
        w.bytes_read = stored * (vb + ib) + n * vb;
        w.flops = 2.0 * stored;
        break;
    case LedgerFormat::dense:
        w.bytes_read = n * n * vb + n * vb;
        w.flops = 2.0 * n * n;
        break;
    }
    w.bytes_written = n * vb;
    return w;
}

/// One streaming update sweep (axpy-like: z = a*x + b*y).
PhaseWork axpy_work(double n)
{
    return {2.0 * n * vb, n * vb, 2.0 * n, 0.0};
}

/// One scalar-Jacobi-like preconditioner application (elementwise scale).
PhaseWork precond_work(double n)
{
    return {2.0 * n * vb, n * vb, n, 0.0};
}

/// One standalone dot: two operand vectors in, one scalar result.
PhaseWork dot_work(double n)
{
    return {2.0 * n * vb, 0.0, 2.0 * n, 1.0};
}

void scale_into(PhaseWork& dst, const PhaseWork& w, double count)
{
    dst.bytes_read += w.bytes_read * count;
    dst.bytes_written += w.bytes_written * count;
    dst.flops += w.flops * count;
    dst.reductions += w.reductions * count;
}

}  // namespace

WorkLedger work_ledger(const SolverWorkProfile& work,
                       const LedgerShape& shape, LedgerFormat format,
                       double total_iterations, double num_systems)
{
    const double n = shape.rows;
    WorkLedger ledger;

    // --- per-iteration work, scaled by the batch's summed iterations ---
    scale_into(ledger.of(Phase::spmv), spmv_work(shape, format),
               work.spmv_per_iter * total_iterations);
    scale_into(ledger.of(Phase::precond), precond_work(n),
               work.precond_per_iter * total_iterations);
    // Reductions computed inside the SpMV sweeps (the host slab groups'):
    // their extra operand vectors, 2n flops per result and one combine
    // point per sweep, charged to the SpMV.
    auto& spmv = ledger.of(Phase::spmv);
    spmv.bytes_read += work.spmv_dot_vectors * n * vb * total_iterations;
    spmv.flops += 2.0 * n * (work.spmv_dot_sweeps + work.spmv_extra_dots) *
                  total_iterations;
    spmv.reductions += work.spmv_dot_sweeps * total_iterations;

    if (work.has_fused_shape()) {
        // Update sweeps: every sweep streams 2 vectors in / 1 out. A norm
        // fused into an update sweep adds its 2n flops but no traffic; its
        // combine synchronization is tallied with the reductions below. A
        // dot fused into a NON-reduction sweep (fused_extra_combines, e.g.
        // pipelined CG's r.z on the preconditioner sweep) likewise adds 2n
        // flops plus a combine point charged to the carrying phase.
        const double sweeps =
            work.fused_update_sweeps + work.fused_norm_update_sweeps;
        auto& upd = ledger.of(Phase::update);
        scale_into(upd, axpy_work(n), sweeps * total_iterations);
        upd.flops += 2.0 * n * work.fused_norm_update_sweeps *
                     total_iterations;
        upd.flops += 2.0 * n * work.fused_extra_combines * total_iterations;
        upd.reductions += work.fused_extra_combines * total_iterations;

        // Standalone reduction sweeps: 2 vectors per plain sweep plus the
        // extra operand vectors the multi-output pipelined sweeps widen
        // their reads with; one combine point per sweep plus one per
        // norm-update sweep (mirroring the cost model's iter_reduction
        // terms); every piggybacked extra result adds 2n flops only.
        const double results = work.fused_dot_sweeps + work.fused_extra_dots;
        auto& red = ledger.of(Phase::reduction);
        red.bytes_read +=
            (2.0 * work.fused_dot_sweeps + work.fused_extra_dot_vectors) *
            n * vb * total_iterations;
        red.flops += 2.0 * n * results * total_iterations;
        red.reductions += (work.fused_dot_sweeps +
                           work.fused_norm_update_sweeps) *
                          total_iterations;
    } else {
        scale_into(ledger.of(Phase::update), axpy_work(n),
                   work.axpys_per_iter * total_iterations);
        scale_into(ledger.of(Phase::reduction), dot_work(n),
                   work.dots_per_iter * total_iterations);
    }

    // --- per-system setup work (initial residual, Jacobi generation) ---
    scale_into(ledger.of(Phase::spmv), spmv_work(shape, format),
               work.setup_spmvs * num_systems);
    scale_into(ledger.of(Phase::reduction), dot_work(n),
               work.setup_dots * num_systems);
    scale_into(ledger.of(Phase::update), axpy_work(n),
               work.setup_axpys * num_systems);
    if (work.precond_per_iter > 0) {
        scale_into(ledger.of(Phase::precond), precond_work(n), num_systems);
    }
    return ledger;
}

namespace {
std::mutex roofline_mutex;
// Mirrors gpusim::skylake_node(): 256 GB/s, 40 cores x 50 GF/s. The
// attribution tests cross-check these numbers against the gpusim header.
RooflinePeaks host_peaks{256.0, 2000.0};
}  // namespace

RooflinePeaks host_roofline()
{
    std::lock_guard<std::mutex> lock(roofline_mutex);
    return host_peaks;
}

void set_host_roofline(const RooflinePeaks& peaks)
{
    std::lock_guard<std::mutex> lock(roofline_mutex);
    host_peaks = peaks;
}

std::vector<PhaseAttribution> attribute_phases(const WorkLedger& ledger,
                                               const PhaseTotals& measured,
                                               const RooflinePeaks& peaks)
{
    std::vector<PhaseAttribution> out;
    for (int p = 0; p < phase_count; ++p) {
        const PhaseWork& work = ledger.phase[p];
        const double seconds = measured.seconds[p];
        if (seconds <= 0 && measured.calls[p] == 0 && work.bytes() <= 0) {
            continue;
        }
        PhaseAttribution a;
        a.phase = static_cast<Phase>(p);
        a.seconds = seconds;
        a.calls = measured.calls[p];
        a.bytes = work.bytes();
        a.flops = work.flops;
        if (seconds > 0) {
            a.gbps = a.bytes / seconds * 1e-9;
            a.gflops = a.flops / seconds * 1e-9;
        }
        a.intensity = a.bytes > 0 ? a.flops / a.bytes : 0.0;
        a.memory_bound = a.intensity <= peaks.ridge();
        if (a.memory_bound) {
            a.peak_fraction = peaks.gbps > 0 ? a.gbps / peaks.gbps : 0.0;
        } else {
            a.peak_fraction =
                peaks.gflops > 0 ? a.gflops / peaks.gflops : 0.0;
        }
        out.push_back(a);
    }
    return out;
}

void record_phase_attribution(MetricsRegistry& registry,
                              const std::string& prefix,
                              const std::vector<PhaseAttribution>& phases)
{
    for (const auto& a : phases) {
        const std::string base =
            prefix + ".phase." + phase_name(a.phase) + ".";
        registry.set_named(base + "seconds", a.seconds);
        registry.set_named(base + "calls", static_cast<double>(a.calls));
        registry.set_named(base + "bytes", a.bytes);
        registry.set_named(base + "flops", a.flops);
        registry.set_named(base + "gbps", a.gbps);
        registry.set_named(base + "gflops", a.gflops);
        registry.set_named(base + "intensity", a.intensity);
        registry.set_named(base + "memory_bound", a.memory_bound ? 1.0 : 0.0);
        registry.set_named(base + "peak_fraction", a.peak_fraction);
    }
}

// ---------------------------------------------------------------------
// Drift detection
// ---------------------------------------------------------------------

int DriftReport::alarms() const
{
    int n = 0;
    for (const auto& p : phases) {
        n += p.alarmed ? 1 : 0;
    }
    for (const auto& s : scalars) {
        n += s.alarmed ? 1 : 0;
    }
    return n;
}

DriftReport detect_drift(const double (&measured)[phase_count],
                         const double (&modeled)[phase_count],
                         const DriftConfig& config)
{
    double measured_total = 0;
    double modeled_total = 0;
    for (int p = 0; p < phase_count; ++p) {
        measured_total += std::max(0.0, measured[p]);
        modeled_total += std::max(0.0, modeled[p]);
    }
    DriftReport report;
    if (measured_total <= 0 || modeled_total <= 0) {
        return report;  // nothing to compare; no checks, no alarms
    }
    if (measured_total < config.min_total_measured) {
        return report;  // below the timing-noise floor; shares meaningless
    }
    for (int p = 0; p < phase_count; ++p) {
        PhaseDrift d;
        d.phase = static_cast<Phase>(p);
        d.measured_share = std::max(0.0, measured[p]) / measured_total;
        d.modeled_share = std::max(0.0, modeled[p]) / modeled_total;
        if (d.measured_share <= 0 && d.modeled_share <= 0) {
            continue;  // phase absent on both sides
        }
        if (d.modeled_share > 0) {
            d.ratio = d.measured_share / d.modeled_share;
        } else {
            d.ratio = std::numeric_limits<double>::infinity();
        }
        const bool significant = d.measured_share >= config.min_share ||
                                 d.modeled_share >= config.min_share;
        d.alarmed = significant &&
                    (d.ratio > config.ratio_threshold ||
                     d.ratio < 1.0 / config.ratio_threshold);
        report.phases.push_back(d);
    }
    return report;
}

void add_scalar_check(DriftReport& report, const std::string& name,
                      double measured, double modeled, double threshold)
{
    DriftReport::ScalarCheck check;
    check.name = name;
    check.measured = measured;
    check.modeled = modeled;
    if (modeled > 0) {
        check.ratio = measured / modeled;
    } else {
        check.ratio = measured > 0
                          ? std::numeric_limits<double>::infinity()
                          : 1.0;
    }
    check.alarmed =
        check.ratio > threshold || check.ratio < 1.0 / threshold;
    report.scalars.push_back(check);
}

namespace {
void add_check_fields(std::vector<EventField>& fields,
                      const std::string& name, double measured,
                      double modeled, double ratio, bool alarmed)
{
    fields.push_back(field(name + ".measured", measured));
    fields.push_back(field(name + ".modeled", modeled));
    fields.push_back(field(name + ".ratio", ratio));
    fields.push_back(field(name + ".alarmed", alarmed));
}
}  // namespace

int record_drift(MetricsRegistry& registry, const std::string& prefix,
                 const DriftReport& report)
{
    const int checks = static_cast<int>(report.phases.size()) +
                       static_cast<int>(report.scalars.size());
    const int alarms = report.alarms();
    registry.add_named("obs.drift.checks", checks);
    if (alarms > 0) {
        registry.add_named("obs.drift.alarms", alarms);
    }
    for (const auto& p : report.phases) {
        const std::string base =
            "obs.drift." + prefix + "." + phase_name(p.phase) + ".";
        registry.set_named(base + "ratio", p.ratio);
        registry.set_named(base + "alarmed", p.alarmed ? 1.0 : 0.0);
    }
    for (const auto& s : report.scalars) {
        const std::string base = "obs.drift." + prefix + "." + s.name + ".";
        registry.set_named(base + "ratio", s.ratio);
        registry.set_named(base + "alarmed", s.alarmed ? 1.0 : 0.0);
    }
    if (alarms > 0 && events_enabled()) {
        // One record carries every check, so the line is actionable on
        // its own, without joining against the gauge snapshot.
        std::vector<EventField> fields{field("prefix", prefix),
                                       field("alarms", alarms),
                                       field("checks", checks)};
        for (const auto& p : report.phases) {
            add_check_fields(fields, phase_name(p.phase), p.measured_share,
                             p.modeled_share, p.ratio, p.alarmed);
        }
        for (const auto& s : report.scalars) {
            add_check_fields(fields, s.name, s.measured, s.modeled, s.ratio,
                             s.alarmed);
        }
        events().emit("drift.alarm", fields);
    }
    return alarms;
}

// ---------------------------------------------------------------------
// ProfileWindow
// ---------------------------------------------------------------------

ProfileWindow::ProfileWindow(int capacity, double ewma_alpha)
    : capacity_(std::max(1, capacity)),
      alpha_(ewma_alpha),
      ring_(static_cast<std::size_t>(capacity_))
{}

void ProfileWindow::push(const Sample& sample)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ring_[static_cast<std::size_t>(head_)] = sample;
    head_ = (head_ + 1) % capacity_;
    count_ = std::min(count_ + 1, capacity_);
    ++pushed_;
    for (int p = 0; p < phase_count; ++p) {
        if (pushed_ == 1) {
            ewma_seconds_[p] = sample.seconds[p];
            ewma_gbps_[p] = sample.gbps[p];
        } else {
            ewma_seconds_[p] +=
                alpha_ * (sample.seconds[p] - ewma_seconds_[p]);
            ewma_gbps_[p] += alpha_ * (sample.gbps[p] - ewma_gbps_[p]);
        }
    }
}

int ProfileWindow::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
}

std::int64_t ProfileWindow::pushed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return pushed_;
}

double ProfileWindow::ewma_seconds(Phase phase) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return ewma_seconds_[static_cast<int>(phase)];
}

double ProfileWindow::ewma_gbps(Phase phase) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return ewma_gbps_[static_cast<int>(phase)];
}

double ProfileWindow::p95_seconds(Phase phase) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> values;
    values.reserve(static_cast<std::size_t>(count_));
    for (int i = 0; i < count_; ++i) {
        values.push_back(ring_[static_cast<std::size_t>(i)]
                             .seconds[static_cast<int>(phase)]);
    }
    return quantile(std::move(values), 0.95);
}

void ProfileWindow::export_gauges(MetricsRegistry& registry,
                                  const std::string& prefix) const
{
    std::int64_t samples = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        samples = pushed_;
    }
    registry.set_named(prefix + ".samples", static_cast<double>(samples));
    if (samples == 0) {
        return;
    }
    for (int p = 0; p < phase_count; ++p) {
        const auto phase = static_cast<Phase>(p);
        if (ewma_seconds(phase) <= 0 && p95_seconds(phase) <= 0) {
            continue;
        }
        const std::string base =
            prefix + "." + std::string(phase_name(phase)) + ".";
        registry.set_named(base + "ewma_us", ewma_seconds(phase) * 1e6);
        registry.set_named(base + "p95_us", p95_seconds(phase) * 1e6);
        registry.set_named(base + "ewma_gbps", ewma_gbps(phase));
    }
}

void ProfileWindow::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    head_ = 0;
    count_ = 0;
    pushed_ = 0;
    for (int p = 0; p < phase_count; ++p) {
        ewma_seconds_[p] = 0;
        ewma_gbps_[p] = 0;
    }
}

ProfileWindow& profile_window()
{
    static ProfileWindow window;
    return window;
}

}  // namespace bsis::obs
