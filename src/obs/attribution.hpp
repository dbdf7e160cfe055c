// Performance attribution: byte/flop accounting per kernel phase, roofline
// classification, measured-vs-modeled drift detection, and the rolling
// continuous-profiler window.
//
// The work LEDGER is the modeled half: it translates a solver's
// per-iteration operation counts (core SolverWorkProfile, the same struct
// the gpusim cost model prices) plus the runtime shape of the batch into
// bytes read/written, flops, and reduction points per phase kind. The
// measured half is a solve's PhaseTotals (obs/phase.hpp), summed from
// the per-thread tallies that every `obs::traced` span feeds, so a
// concurrent solve's spans never enter them. Dividing one by the other
// gives achieved GB/s and GF/s per phase, a roofline classification
// against the platform peaks, and -- when measurement and model disagree
// beyond a threshold -- a drift alarm, recorded as one `drift.alarm`
// event-log line for the autotuning audit trail.
//
// Byte-accounting conventions (the hand-count contract the attribution
// tests pin down; DESIGN.md "Performance attribution" restates it):
//   * bytes are LOGICAL traffic: each operand vector/array touched by a
//     sweep counts once, with no cache model and no transaction
//     amplification (the gpusim tracer measures those effects; comparing
//     it against this ledger is exactly the drift check);
//   * the shared sparsity pattern counts per system -- every block/thread
//     streams it, hierarchy hits notwithstanding;
//   * a dot counts two operand vectors read, a norm one; a fused or
//     piggybacked extra dot result adds 2n flops but only the extra
//     operand vectors the work profile declares;
//   * ELL and SELL-P flops include the padding (the kernels multiply the
//     stored zeros).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/work_profile.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "util/types.hpp"

namespace bsis::obs {

/// Bytes/flops/reduction-points of one phase kind.
struct PhaseWork {
    double bytes_read = 0;
    double bytes_written = 0;
    double flops = 0;
    double reductions = 0;  ///< block-wide reduction (synchronization) points

    double bytes() const { return bytes_read + bytes_written; }

    PhaseWork& operator+=(const PhaseWork& o)
    {
        bytes_read += o.bytes_read;
        bytes_written += o.bytes_written;
        flops += o.flops;
        reductions += o.reductions;
        return *this;
    }
};

/// Per-phase work of one solve (or of one iteration of one system, when
/// built with total_iterations = num_systems = 1).
struct WorkLedger {
    PhaseWork phase[phase_count] = {};

    const PhaseWork& of(Phase p) const
    {
        return phase[static_cast<int>(p)];
    }
    PhaseWork& of(Phase p) { return phase[static_cast<int>(p)]; }

    PhaseWork total() const
    {
        PhaseWork t;
        for (const auto& p : phase) {
            t += p;
        }
        return t;
    }
};

/// Storage format as the ledger distinguishes it (the core BatchFormat
/// only spans the two GPU kernel formats).
enum class LedgerFormat { csr, ell, sellp, dense };

/// Shape of one batch system as the byte accounting needs it.
struct LedgerShape {
    index_type rows = 0;
    /// Stored values per system INCLUDING padding (CSR: nnz; ELL:
    /// nnz_per_row * rows; SELL-P: the slice-padded count; dense: rows^2).
    index_type stored_nnz = 0;
    index_type nnz_per_row = 0;  ///< ELL width / max CSR row length
};

/// Builds the ledger of a whole batched solve: per-iteration work from
/// the profile's sweep structure (fused shape when present, one sweep per
/// BLAS call otherwise) scaled by `total_iterations` (summed over the
/// batch), plus per-system setup work scaled by `num_systems`.
WorkLedger work_ledger(const SolverWorkProfile& work,
                       const LedgerShape& shape, LedgerFormat format,
                       double total_iterations, double num_systems);

/// Platform peaks the roofline classification compares against.
struct RooflinePeaks {
    double gbps = 0;    ///< peak memory bandwidth
    double gflops = 0;  ///< peak FP64 rate

    /// Ridge-point arithmetic intensity (flop/byte) separating memory-
    /// from compute-bound.
    double ridge() const { return gbps <= 0 ? 0.0 : gflops / gbps; }
};

/// The host peaks used for solve.phase.* attribution. The default mirrors
/// gpusim::skylake_node() (the paper's CPU baseline node); executors or
/// apps running on different hardware may override it. (obs cannot link
/// against gpusim -- gpusim links against core which links obs -- so the
/// numbers are mirrored here and cross-checked by the attribution tests.)
RooflinePeaks host_roofline();
void set_host_roofline(const RooflinePeaks& peaks);

/// One phase's attribution numbers: measurement joined with the ledger.
struct PhaseAttribution {
    Phase phase = Phase::other;
    double seconds = 0;
    std::int64_t calls = 0;
    double bytes = 0;
    double flops = 0;
    double gbps = 0;       ///< achieved: bytes / seconds
    double gflops = 0;     ///< achieved: flops / seconds
    double intensity = 0;  ///< flops / bytes
    bool memory_bound = true;   ///< intensity below the roofline ridge
    double peak_fraction = 0;   ///< achieved / peak at the binding limit
};

/// Joins measured phase times with the ledger under `peaks`. Phases with
/// no measured time and no ledger work are omitted.
std::vector<PhaseAttribution> attribute_phases(const WorkLedger& ledger,
                                               const PhaseTotals& measured,
                                               const RooflinePeaks& peaks);

/// Records one solve's attribution as gauges under
/// `<prefix>.phase.<name>.{seconds,calls,bytes,flops,gbps,gflops,
/// intensity,memory_bound,peak_fraction}` (prefix "solve" for the host
/// paths, "gpusim" for the modeled device phases).
void record_phase_attribution(MetricsRegistry& registry,
                              const std::string& prefix,
                              const std::vector<PhaseAttribution>& phases);

// ---------------------------------------------------------------------
// Drift detection: does the cost model still explain the measurement?
// ---------------------------------------------------------------------

struct DriftConfig {
    /// A phase alarms when measured_share / modeled_share falls outside
    /// [1/ratio_threshold, ratio_threshold].
    double ratio_threshold = 4.0;
    /// Phases whose share is below this on BOTH sides are exempt (tiny
    /// phases drown in per-span timer overhead).
    double min_share = 0.05;
    /// All share checks are skipped when the measured side's total falls
    /// below this (same units as the measured input; the default assumes
    /// wall seconds). On a solve whose phases sum to mere microseconds a
    /// single scheduler preemption inside one span rewrites the whole
    /// share mix, so an alarm would report OS noise, not model error.
    /// Callers whose measured side is deterministic (the gpusim
    /// executor's modeled decomposition) set this to 0.
    double min_total_measured = 1e-3;
};

struct PhaseDrift {
    Phase phase = Phase::other;
    double measured_share = 0;  ///< fraction of the measured iteration cost
    double modeled_share = 0;   ///< fraction of the modeled iteration cost
    double ratio = 1.0;         ///< measured_share / modeled_share
    bool alarmed = false;
};

struct DriftReport {
    std::vector<PhaseDrift> phases;
    /// Scalar measured-vs-modeled pairs checked alongside the share
    /// comparison (e.g. gpusim traced flops per iteration vs the ledger's
    /// count). `ratio` = measured / modeled.
    struct ScalarCheck {
        std::string name;
        double measured = 0;
        double modeled = 0;
        double ratio = 1.0;
        bool alarmed = false;
    };
    std::vector<ScalarCheck> scalars;

    int alarms() const;
};

/// Compares measured per-phase cost against modeled per-phase cost (any
/// consistent units -- only the SHARES are compared, so host wall seconds
/// can be checked against modeled device microseconds).
DriftReport detect_drift(const double (&measured)[phase_count],
                         const double (&modeled)[phase_count],
                         const DriftConfig& config = {});

/// Adds one scalar measured-vs-modeled check to `report` (alarm when the
/// ratio falls outside [1/threshold, threshold]).
void add_scalar_check(DriftReport& report, const std::string& name,
                      double measured, double modeled, double threshold);

/// Records a drift report: counters `obs.drift.checks` / `obs.drift.alarms`,
/// gauges `obs.drift.<prefix>.<phase>.ratio` (and `.alarmed`), and -- when
/// any check alarms and the event log is open -- one `drift.alarm` event
/// carrying `prefix`, `alarms`, `checks` and, for every phase and scalar
/// check, `<name>.measured`, `.modeled`, `.ratio` and `.alarmed` (phase
/// checks report shares). Returns the number of alarms.
int record_drift(MetricsRegistry& registry, const std::string& prefix,
                 const DriftReport& report);

// ---------------------------------------------------------------------
// Continuous profiler: rolling window of per-solve phase aggregates.
// ---------------------------------------------------------------------

/// Bounded ring of per-solve phase aggregates with EWMA and p95 summary
/// statistics. One push per solve_batch (cold path); always-on while
/// metrics are enabled.
class ProfileWindow {
public:
    struct Sample {
        double seconds[phase_count] = {};
        double gbps[phase_count] = {};
    };

    explicit ProfileWindow(int capacity = 128, double ewma_alpha = 0.2);

    void push(const Sample& sample);

    int capacity() const { return capacity_; }
    int size() const;               ///< samples currently retained
    std::int64_t pushed() const;    ///< samples ever pushed

    double ewma_seconds(Phase phase) const;
    double ewma_gbps(Phase phase) const;
    double p95_seconds(Phase phase) const;  ///< over the retained window

    /// Exports the window summary as gauges under
    /// `<prefix>.<phase>.{ewma_us,p95_us,ewma_gbps}` plus
    /// `<prefix>.samples`.
    void export_gauges(MetricsRegistry& registry,
                       const std::string& prefix = "obs.window") const;

    void reset();

private:
    const int capacity_;
    const double alpha_;
    mutable std::mutex mutex_;
    std::vector<Sample> ring_;
    int head_ = 0;
    int count_ = 0;
    std::int64_t pushed_ = 0;
    double ewma_seconds_[phase_count] = {};
    double ewma_gbps_[phase_count] = {};
};

/// The process-wide window record_solve_metrics pushes into.
ProfileWindow& profile_window();

}  // namespace bsis::obs
