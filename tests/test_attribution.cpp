// Attribution tier (`attribution` ctest label): the work ledger's
// byte/flop hand counts (CSR/ELL/SELL-P/dense SpMV, fused and pipelined
// sweep structures, setup work), roofline attribution arithmetic, drift
// detection, the continuous-profiler window, and the measured-bandwidth
// sanity bounds of real solves on all three execution paths.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/lockstep.hpp"
#include "core/solver.hpp"
#include "exec/executor.hpp"
#include "gpusim/device.hpp"
#include "matrix/conversions.hpp"
#include "matrix/stencil.hpp"
#include "obs/attribution.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace bsis {
namespace {

constexpr double vb = sizeof(real_type);   // 8
constexpr double ib = sizeof(index_type);  // 4

// ---------------------------------------------------------------------
// Ledger hand counts: one SpMV application per format.
// ---------------------------------------------------------------------

SolverWorkProfile spmv_only_profile()
{
    SolverWorkProfile w;
    w.spmv_per_iter = 1;
    return w;
}

TEST(WorkLedger, CsrSpmvHandCount)
{
    // n = 4 rows, 8 stored nonzeros: values + column indices
    // (8 * 12 = 96) + row pointers (5 * 4 = 20) + x gather (32) = 148
    // bytes read; y write 32; 2 flops per stored entry.
    const obs::LedgerShape shape{4, 8, 2};
    const auto ledger = obs::work_ledger(spmv_only_profile(), shape,
                                         obs::LedgerFormat::csr, 1.0, 0.0);
    const auto& spmv = ledger.of(obs::Phase::spmv);
    EXPECT_DOUBLE_EQ(spmv.bytes_read, 148.0);
    EXPECT_DOUBLE_EQ(spmv.bytes_written, 32.0);
    EXPECT_DOUBLE_EQ(spmv.flops, 16.0);
    EXPECT_DOUBLE_EQ(spmv.reductions, 0.0);
    // No other phase gains work from a bare SpMV.
    EXPECT_DOUBLE_EQ(ledger.of(obs::Phase::precond).bytes(), 0.0);
    EXPECT_DOUBLE_EQ(ledger.of(obs::Phase::reduction).bytes(), 0.0);
    EXPECT_DOUBLE_EQ(ledger.of(obs::Phase::update).bytes(), 0.0);
}

TEST(WorkLedger, EllSpmvCountsPadding)
{
    // n = 4 rows padded to width 3: 12 stored slots. Padded values +
    // padded indices (12 * 12 = 144) + x (32) = 176 read; the kernel
    // multiplies the stored zeros, so flops = 2 * 12 = 24.
    const obs::LedgerShape shape{4, 12, 3};
    const auto ledger = obs::work_ledger(spmv_only_profile(), shape,
                                         obs::LedgerFormat::ell, 1.0, 0.0);
    const auto& spmv = ledger.of(obs::Phase::spmv);
    EXPECT_DOUBLE_EQ(spmv.bytes_read, 176.0);
    EXPECT_DOUBLE_EQ(spmv.bytes_written, 32.0);
    EXPECT_DOUBLE_EQ(spmv.flops, 24.0);
}

TEST(WorkLedger, SellpSpmvMatchesEllFormulaOnPaddedCount)
{
    // SELL-P differs from ELL only in which padded count the shape
    // carries (slice-padded); the per-stored-slot accounting is the same.
    const obs::LedgerShape shape{4, 10, 2};
    const auto sellp = obs::work_ledger(spmv_only_profile(), shape,
                                        obs::LedgerFormat::sellp, 1.0, 0.0);
    const auto ell = obs::work_ledger(spmv_only_profile(), shape,
                                      obs::LedgerFormat::ell, 1.0, 0.0);
    EXPECT_DOUBLE_EQ(sellp.of(obs::Phase::spmv).bytes_read,
                     ell.of(obs::Phase::spmv).bytes_read);
    EXPECT_DOUBLE_EQ(sellp.of(obs::Phase::spmv).flops,
                     ell.of(obs::Phase::spmv).flops);
    EXPECT_DOUBLE_EQ(sellp.of(obs::Phase::spmv).bytes_read, 10 * 12 + 32.0);
}

TEST(WorkLedger, DenseSpmvHandCount)
{
    const obs::LedgerShape shape{4, 16, 4};
    const auto ledger = obs::work_ledger(spmv_only_profile(), shape,
                                         obs::LedgerFormat::dense, 1.0, 0.0);
    const auto& spmv = ledger.of(obs::Phase::spmv);
    EXPECT_DOUBLE_EQ(spmv.bytes_read, 16 * 8 + 32.0);  // n^2 values + x
    EXPECT_DOUBLE_EQ(spmv.bytes_written, 32.0);
    EXPECT_DOUBLE_EQ(spmv.flops, 32.0);  // 2 n^2
}

// ---------------------------------------------------------------------
// Ledger hand counts: fused and pipelined sweep structures. All built
// with total_iterations = 1, num_systems = 0 to isolate the
// per-iteration work.
// ---------------------------------------------------------------------

constexpr double kN = 100.0;
const obs::LedgerShape kShape{100, 900, 9};

obs::WorkLedger iteration_ledger(SolverType solver, bool pipelined)
{
    const auto work = work_profile(solver, 30, /*fused=*/true, pipelined);
    return obs::work_ledger(work, kShape, obs::LedgerFormat::csr, 1.0, 0.0);
}

TEST(WorkLedger, FusedBicgstabIteration)
{
    const auto ledger = iteration_ledger(SolverType::bicgstab, false);

    // 2 SpMV sweeps per iteration.
    const auto csr_read = 900 * (vb + ib) + 101 * ib + kN * vb;
    EXPECT_DOUBLE_EQ(ledger.of(obs::Phase::spmv).bytes_read, 2 * csr_read);
    EXPECT_DOUBLE_EQ(ledger.of(obs::Phase::spmv).flops, 2 * 2 * 900.0);

    // 2 Jacobi applications: 2n read + n written, n flops each.
    EXPECT_DOUBLE_EQ(ledger.of(obs::Phase::precond).bytes_read,
                     2 * 2 * kN * vb);
    EXPECT_DOUBLE_EQ(ledger.of(obs::Phase::precond).flops, 2 * kN);

    // Update: 2 pure + 2 norm-carrying sweeps, each 2 vectors in / 1 out
    // and 2n flops; each fused norm adds 2n flops, no traffic.
    const auto& upd = ledger.of(obs::Phase::update);
    EXPECT_DOUBLE_EQ(upd.bytes_read, 4 * 2 * kN * vb);
    EXPECT_DOUBLE_EQ(upd.bytes_written, 4 * kN * vb);
    EXPECT_DOUBLE_EQ(upd.flops, 4 * 2 * kN + 2 * 2 * kN);
    EXPECT_DOUBLE_EQ(upd.reductions, 0.0);

    // Reduction: 3 standalone sweeps x 2 vectors; 3 sweeps + 1
    // piggybacked extra dot = 4 results x 2n flops; 3 sweep combines +
    // 2 norm-update combines = 5 reduction points.
    const auto& red = ledger.of(obs::Phase::reduction);
    EXPECT_DOUBLE_EQ(red.bytes_read, 3 * 2 * kN * vb);
    EXPECT_DOUBLE_EQ(red.bytes_written, 0.0);
    EXPECT_DOUBLE_EQ(red.flops, 4 * 2 * kN);
    EXPECT_DOUBLE_EQ(red.reductions, 5.0);
}

TEST(WorkLedger, PipelinedBicgstabTradesReductionPointsForWiderReads)
{
    const auto classic = iteration_ledger(SolverType::bicgstab, false);
    const auto pipe = iteration_ledger(SolverType::bicgstab, true);

    // The pipelined dot4 sweep reads one extra operand vector: 2 sweeps
    // x 2 vectors + 1 extra = 5 vectors streamed per iteration.
    const auto& red = pipe.of(obs::Phase::reduction);
    EXPECT_DOUBLE_EQ(red.bytes_read, (2 * 2 + 1) * kN * vb);
    // 2 sweeps + 3 piggybacked results = 5 dot results, 2n flops each.
    EXPECT_DOUBLE_EQ(red.flops, 5 * 2 * kN);
    // 2 sweep combines + 1 norm-update combine = 3 reduction points,
    // down from the classic kernel's 5: the pipelined win.
    EXPECT_DOUBLE_EQ(red.reductions, 3.0);
    EXPECT_LT(red.reductions, classic.of(obs::Phase::reduction).reductions);

    // Update: 3 pure + 1 norm sweep = same 4 streaming sweeps as classic.
    const auto& upd = pipe.of(obs::Phase::update);
    EXPECT_DOUBLE_EQ(upd.bytes_read, 4 * 2 * kN * vb);
    EXPECT_DOUBLE_EQ(upd.flops, 4 * 2 * kN + 1 * 2 * kN);
}

TEST(WorkLedger, PipelinedCgSingleReductionPoint)
{
    const auto classic = iteration_ledger(SolverType::cg, false);
    const auto pipe = iteration_ledger(SolverType::cg, true);

    // Classic fused CG: 2 dot sweeps + 1 norm-update combine = 3 points.
    EXPECT_DOUBLE_EQ(classic.of(obs::Phase::reduction).reductions, 3.0);

    // Pipelined: ONE dot3_nrm2_lanes sweep (3 vectors read, 4 results), plus
    // the r.z combine riding the preconditioner/update side.
    const auto& red = pipe.of(obs::Phase::reduction);
    EXPECT_DOUBLE_EQ(red.reductions, 1.0);
    EXPECT_DOUBLE_EQ(red.bytes_read, (2 * 1 + 1) * kN * vb);
    EXPECT_DOUBLE_EQ(red.flops, (1 + 3) * 2 * kN);

    // The fused extra combine lands on the update phase: 2n flops and
    // one combine point on top of the 3 pure update sweeps.
    const auto& upd = pipe.of(obs::Phase::update);
    EXPECT_DOUBLE_EQ(upd.bytes_read, 3 * 2 * kN * vb);
    EXPECT_DOUBLE_EQ(upd.flops, 3 * 2 * kN + 2 * kN);
    EXPECT_DOUBLE_EQ(upd.reductions, 1.0);
}

TEST(WorkLedger, UnfusedFallbackUsesOperationCounts)
{
    const auto work = work_profile(SolverType::bicgstab, 30, /*fused=*/false);
    ASSERT_FALSE(work.has_fused_shape());
    const auto ledger =
        obs::work_ledger(work, kShape, obs::LedgerFormat::csr, 1.0, 0.0);
    // 6 axpy-like updates, 6 standalone dots, one reduction point each.
    EXPECT_DOUBLE_EQ(ledger.of(obs::Phase::update).bytes_read,
                     6 * 2 * kN * vb);
    EXPECT_DOUBLE_EQ(ledger.of(obs::Phase::update).bytes_written,
                     6 * kN * vb);
    EXPECT_DOUBLE_EQ(ledger.of(obs::Phase::reduction).bytes_read,
                     6 * 2 * kN * vb);
    EXPECT_DOUBLE_EQ(ledger.of(obs::Phase::reduction).reductions, 6.0);
}

TEST(WorkLedger, SetupWorkScalesWithSystems)
{
    // total_iterations = 0 isolates the per-system setup terms.
    const auto work = work_profile(SolverType::bicgstab);
    const double systems = 3.0;
    const auto ledger = obs::work_ledger(work, kShape,
                                         obs::LedgerFormat::csr, 0.0, systems);
    const auto csr_read = 900 * (vb + ib) + 101 * ib + kN * vb;
    // setup_spmvs = 1, setup_dots = 1, setup_axpys = 3, + 1 Jacobi build.
    EXPECT_DOUBLE_EQ(ledger.of(obs::Phase::spmv).bytes_read,
                     systems * csr_read);
    EXPECT_DOUBLE_EQ(ledger.of(obs::Phase::reduction).reductions, systems);
    EXPECT_DOUBLE_EQ(ledger.of(obs::Phase::update).bytes_written,
                     systems * 3 * kN * vb);
    EXPECT_DOUBLE_EQ(ledger.of(obs::Phase::precond).bytes_read,
                     systems * 2 * kN * vb);
}

TEST(WorkLedger, ScalesLinearlyWithIterationsAndTotals)
{
    const auto work = work_profile(SolverType::bicgstab);
    const auto one =
        obs::work_ledger(work, kShape, obs::LedgerFormat::csr, 1.0, 0.0);
    const auto ten =
        obs::work_ledger(work, kShape, obs::LedgerFormat::csr, 10.0, 0.0);
    EXPECT_DOUBLE_EQ(ten.total().bytes(), 10.0 * one.total().bytes());
    EXPECT_DOUBLE_EQ(ten.total().flops, 10.0 * one.total().flops);
    EXPECT_DOUBLE_EQ(ten.total().reductions, 10.0 * one.total().reductions);
}

// ---------------------------------------------------------------------
// Roofline attribution arithmetic.
// ---------------------------------------------------------------------

TEST(Attribution, RooflineMathMemoryBound)
{
    obs::WorkLedger ledger;
    ledger.of(obs::Phase::spmv) = {128e9, 0.0, 64e9, 0.0};
    obs::PhaseTotals measured;
    measured.seconds[0] = 1.0;
    measured.calls[0] = 7;
    const obs::RooflinePeaks peaks{256.0, 2000.0};
    const auto rows = obs::attribute_phases(ledger, measured, peaks);
    ASSERT_EQ(rows.size(), 1u);
    const auto& a = rows[0];
    EXPECT_EQ(a.phase, obs::Phase::spmv);
    EXPECT_EQ(a.calls, 7);
    EXPECT_DOUBLE_EQ(a.gbps, 128.0);
    EXPECT_DOUBLE_EQ(a.gflops, 64.0);
    EXPECT_DOUBLE_EQ(a.intensity, 0.5);
    EXPECT_TRUE(a.memory_bound);  // 0.5 flop/byte < ridge 7.8125
    EXPECT_DOUBLE_EQ(a.peak_fraction, 0.5);  // 128 / 256 GB/s
}

TEST(Attribution, RooflineMathComputeBound)
{
    obs::WorkLedger ledger;
    ledger.of(obs::Phase::update) = {1e9, 0.0, 1000e9, 0.0};
    obs::PhaseTotals measured;
    measured.seconds[3] = 1.0;
    const obs::RooflinePeaks peaks{256.0, 2000.0};
    const auto rows = obs::attribute_phases(ledger, measured, peaks);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_FALSE(rows[0].memory_bound);  // 1000 flop/byte > ridge
    EXPECT_DOUBLE_EQ(rows[0].peak_fraction, 0.5);  // 1000 / 2000 GF/s
}

TEST(Attribution, OmitsPhasesWithNoWorkAndNoTime)
{
    const obs::WorkLedger ledger;
    const obs::PhaseTotals measured;
    EXPECT_TRUE(
        obs::attribute_phases(ledger, measured, obs::RooflinePeaks{256, 2000})
            .empty());
}

TEST(Attribution, HostRooflineMirrorsSkylakeNode)
{
    // obs cannot link gpusim, so the host peaks are mirrored constants;
    // this test (which links both) pins them to the gpusim CPU spec.
    const auto& cpu = gpusim::skylake_node();
    const auto peaks = obs::host_roofline();
    EXPECT_DOUBLE_EQ(peaks.gbps, cpu.mem_bw_gbps);
    EXPECT_DOUBLE_EQ(peaks.gflops,
                     cpu.total_cores * cpu.peak_fp64_gflops_per_core);
}

TEST(Attribution, RecordPhaseAttributionEmitsGauges)
{
    obs::MetricsRegistry registry;
    obs::WorkLedger ledger;
    ledger.of(obs::Phase::spmv) = {100.0, 50.0, 300.0, 0.0};
    obs::PhaseTotals measured;
    measured.seconds[0] = 2.0;
    const auto rows = obs::attribute_phases(ledger, measured,
                                            obs::RooflinePeaks{256, 2000});
    obs::record_phase_attribution(registry, "solve", rows);
    const auto snap = registry.snapshot();
    EXPECT_DOUBLE_EQ(snap.gauge("solve.phase.spmv.seconds"), 2.0);
    EXPECT_DOUBLE_EQ(snap.gauge("solve.phase.spmv.bytes"), 150.0);
    EXPECT_DOUBLE_EQ(snap.gauge("solve.phase.spmv.flops"), 300.0);
    EXPECT_DOUBLE_EQ(snap.gauge("solve.phase.spmv.intensity"), 2.0);
    EXPECT_DOUBLE_EQ(snap.gauge("solve.phase.spmv.memory_bound"), 1.0);
}

// ---------------------------------------------------------------------
// Drift detection.
// ---------------------------------------------------------------------

TEST(Drift, AgreementRaisesNoAlarm)
{
    const double measured[obs::phase_count] = {4.0, 2.0, 2.0, 2.0, 0.0};
    const double modeled[obs::phase_count] = {8.0, 4.0, 4.0, 4.0, 0.0};
    const auto report = obs::detect_drift(measured, modeled);
    EXPECT_EQ(report.alarms(), 0);
    ASSERT_EQ(report.phases.size(), 4u);  // `other` absent on both sides
    for (const auto& p : report.phases) {
        EXPECT_DOUBLE_EQ(p.ratio, 1.0);
    }
}

TEST(Drift, LargeShareSkewAlarms)
{
    const double measured[obs::phase_count] = {10.0, 0.0, 0.0, 0.0, 0.0};
    const double modeled[obs::phase_count] = {1.0, 9.0, 0.0, 0.0, 0.0};
    const auto report = obs::detect_drift(measured, modeled);
    // spmv: share 1.0 vs 0.1 -> ratio 10 > 4; precond: 0 vs 0.9 -> < 1/4.
    EXPECT_EQ(report.alarms(), 2);
}

TEST(Drift, TinyPhasesAreExemptOnBothSides)
{
    const double measured[obs::phase_count] = {99.0, 1.0, 0.0, 0.0, 0.0};
    const double modeled[obs::phase_count] = {99.96, 0.04, 0.0, 0.0, 0.0};
    // precond ratio is 25x but both shares sit under min_share = 0.05.
    EXPECT_EQ(obs::detect_drift(measured, modeled).alarms(), 0);
}

TEST(Drift, MicrosecondScaleMeasurementsAreSkipped)
{
    // Shares this skewed would alarm twice -- but the measured side sums
    // to 420 us, under the 1 ms noise floor, so no checks run at all: a
    // single scheduler preemption inside one span rewrites a share mix
    // this small.
    const double measured[obs::phase_count] = {300e-6, 50e-6, 40e-6, 30e-6,
                                               0.0};
    const double modeled[obs::phase_count] = {1.0, 9.0, 0.0, 0.0, 0.0};
    EXPECT_TRUE(obs::detect_drift(measured, modeled).phases.empty());

    // Deterministic callers opt out of the guard (the gpusim executor's
    // model-vs-floor comparison) and keep full sensitivity.
    obs::DriftConfig cfg;
    cfg.min_total_measured = 0;
    const auto report = obs::detect_drift(measured, modeled, cfg);
    EXPECT_FALSE(report.phases.empty());
    EXPECT_GT(report.alarms(), 0);
}

TEST(Drift, EmptySidesProduceNoChecks)
{
    const double measured[obs::phase_count] = {1.0, 0.0, 0.0, 0.0, 0.0};
    const double zero[obs::phase_count] = {};
    EXPECT_TRUE(obs::detect_drift(measured, zero).phases.empty());
    EXPECT_TRUE(obs::detect_drift(zero, measured).phases.empty());
}

TEST(Drift, ScalarChecks)
{
    obs::DriftReport report;
    obs::add_scalar_check(report, "fine", 2.0, 1.0, 2.5);
    obs::add_scalar_check(report, "high", 10.0, 1.0, 2.5);
    obs::add_scalar_check(report, "low", 1.0, 10.0, 2.5);
    obs::add_scalar_check(report, "inf", 1.0, 0.0, 2.5);
    obs::add_scalar_check(report, "both_zero", 0.0, 0.0, 2.5);
    ASSERT_EQ(report.scalars.size(), 5u);
    EXPECT_FALSE(report.scalars[0].alarmed);
    EXPECT_TRUE(report.scalars[1].alarmed);
    EXPECT_TRUE(report.scalars[2].alarmed);
    EXPECT_TRUE(report.scalars[3].alarmed);
    EXPECT_TRUE(std::isinf(report.scalars[3].ratio));
    EXPECT_FALSE(report.scalars[4].alarmed);
    EXPECT_EQ(report.alarms(), 3);
}

TEST(Drift, RecordDriftEmitsCountersGaugesAndAnnotation)
{
    const std::string log_path =
        ::testing::TempDir() + "bsis_drift_events_test.jsonl";
    std::filesystem::remove(log_path);
    ASSERT_TRUE(obs::open_events(log_path));

    obs::MetricsRegistry registry;
    const double measured[obs::phase_count] = {10.0, 0.0, 0.0, 0.0, 0.0};
    const double modeled[obs::phase_count] = {1.0, 9.0, 0.0, 0.0, 0.0};
    auto report = obs::detect_drift(measured, modeled);
    obs::add_scalar_check(report, "traced_flops_per_iter", 10.0, 1.0, 2.5);
    const int alarms = obs::record_drift(registry, "unit", report);
    obs::close_events();

    EXPECT_EQ(alarms, 3);
    const auto snap = registry.snapshot();
    EXPECT_EQ(snap.counter("obs.drift.checks"), 3);
    EXPECT_EQ(snap.counter("obs.drift.alarms"), 3);
    EXPECT_DOUBLE_EQ(snap.gauge("obs.drift.unit.spmv.ratio"), 10.0);
    EXPECT_DOUBLE_EQ(snap.gauge("obs.drift.unit.spmv.alarmed"), 1.0);
    EXPECT_DOUBLE_EQ(
        snap.gauge("obs.drift.unit.traced_flops_per_iter.alarmed"), 1.0);

    // The annotation is one drift.alarm event line carrying every check.
    std::ifstream in(log_path);
    std::string line;
    std::string alarm;
    int alarm_lines = 0;
    while (std::getline(in, line)) {
        if (line.find("\"event\": \"drift.alarm\"") != std::string::npos) {
            alarm = line;
            ++alarm_lines;
        }
    }
    EXPECT_EQ(alarm_lines, 1);
    EXPECT_NE(alarm.find("\"spmv.ratio\": 10,"), std::string::npos) << alarm;
    EXPECT_NE(alarm.find("\"traced_flops_per_iter.alarmed\": true"),
              std::string::npos)
        << alarm;
    std::filesystem::remove(log_path);
}

// ---------------------------------------------------------------------
// ProfileWindow.
// ---------------------------------------------------------------------

obs::ProfileWindow::Sample sample_with(obs::Phase phase, double seconds,
                                       double gbps = 0)
{
    obs::ProfileWindow::Sample s;
    s.seconds[static_cast<int>(phase)] = seconds;
    s.gbps[static_cast<int>(phase)] = gbps;
    return s;
}

TEST(ProfileWindow, EwmaInitializesOnFirstPush)
{
    obs::ProfileWindow w(8, 0.5);
    w.push(sample_with(obs::Phase::spmv, 1.0, 100.0));
    EXPECT_DOUBLE_EQ(w.ewma_seconds(obs::Phase::spmv), 1.0);
    EXPECT_DOUBLE_EQ(w.ewma_gbps(obs::Phase::spmv), 100.0);
    w.push(sample_with(obs::Phase::spmv, 3.0, 200.0));
    EXPECT_DOUBLE_EQ(w.ewma_seconds(obs::Phase::spmv), 2.0);
    EXPECT_DOUBLE_EQ(w.ewma_gbps(obs::Phase::spmv), 150.0);
}

TEST(ProfileWindow, RingEvictsBeyondCapacity)
{
    obs::ProfileWindow w(4, 0.2);
    for (int i = 0; i < 6; ++i) {
        w.push(sample_with(obs::Phase::update, 1.0 + i));
    }
    EXPECT_EQ(w.size(), 4);
    EXPECT_EQ(w.pushed(), 6);
    // Retained window is {3, 4, 5, 6}; type-7 p95 over it = 5.85.
    EXPECT_NEAR(w.p95_seconds(obs::Phase::update), 5.85, 1e-12);
}

TEST(ProfileWindow, P95TypeSevenInterpolation)
{
    obs::ProfileWindow w(8, 0.2);
    for (const double v : {1.0, 2.0, 3.0, 4.0}) {
        w.push(sample_with(obs::Phase::reduction, v));
    }
    // pos = 0.95 * 3 = 2.85 -> 3 + 0.85 * (4 - 3) = 3.85.
    EXPECT_NEAR(w.p95_seconds(obs::Phase::reduction), 3.85, 1e-12);
    obs::ProfileWindow single(8, 0.2);
    single.push(sample_with(obs::Phase::reduction, 7.0));
    EXPECT_DOUBLE_EQ(single.p95_seconds(obs::Phase::reduction), 7.0);
    EXPECT_DOUBLE_EQ(single.p95_seconds(obs::Phase::spmv), 0.0);
}

TEST(ProfileWindow, ExportGaugesAndReset)
{
    obs::ProfileWindow w(4, 0.5);
    obs::MetricsRegistry registry;
    w.export_gauges(registry, "win");
    EXPECT_DOUBLE_EQ(registry.snapshot().gauge("win.samples"), 0.0);

    w.push(sample_with(obs::Phase::spmv, 2e-3, 10.0));
    w.export_gauges(registry, "win");
    const auto snap = registry.snapshot();
    EXPECT_DOUBLE_EQ(snap.gauge("win.samples"), 1.0);
    EXPECT_NEAR(snap.gauge("win.spmv.ewma_us"), 2000.0, 1e-9);
    EXPECT_NEAR(snap.gauge("win.spmv.p95_us"), 2000.0, 1e-9);
    EXPECT_DOUBLE_EQ(snap.gauge("win.spmv.ewma_gbps"), 10.0);

    w.reset();
    EXPECT_EQ(w.size(), 0);
    EXPECT_EQ(w.pushed(), 0);
    EXPECT_DOUBLE_EQ(w.ewma_seconds(obs::Phase::spmv), 0.0);
}

// ---------------------------------------------------------------------
// Phase timer wiring: obs::traced(Phase, ...) feeds the calling thread's
// tally.
// ---------------------------------------------------------------------

TEST(PhaseTimer, TracedPhaseOverloadAccumulates)
{
    obs::set_metrics_enabled(true);
    const auto before = obs::thread_phase_tally().totals();
    const int value = obs::traced(obs::Phase::spmv, "spmv", [] {
        volatile double acc = 0;
        for (int i = 0; i < 1000; ++i) {
            acc = acc + 1.0;
        }
        return 42;
    });
    obs::set_metrics_enabled(false);
    EXPECT_EQ(value, 42);
    const auto delta = obs::thread_phase_tally().totals() - before;
    EXPECT_EQ(delta.calls[static_cast<int>(obs::Phase::spmv)], 1);
    EXPECT_GT(delta.seconds[static_cast<int>(obs::Phase::spmv)], 0.0);
    EXPECT_EQ(delta.calls[static_cast<int>(obs::Phase::update)], 0);
}

TEST(PhaseTimer, DisabledRecordsNothing)
{
    obs::set_metrics_enabled(false);
    const auto before = obs::thread_phase_tally().totals();
    obs::traced(obs::Phase::update, "update", [] { return 0; });
    const auto delta = obs::thread_phase_tally().totals() - before;
    EXPECT_EQ(delta.calls[static_cast<int>(obs::Phase::update)], 0);
}

/// A fixed busy loop of a few tens of microseconds.
void busy_work()
{
    volatile double acc = 0;
    for (int i = 0; i < 20000; ++i) {
        acc = acc + 1.0;
    }
}

TEST(PhaseTimer, CpuEstimatorExactForOneSampledSpan)
{
    constexpr int p = static_cast<int>(obs::Phase::reduction);
    // reset() restarts the thread's sample pattern at its next span.
    obs::thread_phase_tally().reset();
    obs::set_metrics_enabled(true);
    obs::traced(obs::Phase::reduction, "reduction", busy_work);
    obs::set_metrics_enabled(false);
    const auto delta = obs::thread_phase_tally().totals();
    // The first span of a phase on a thread is always sampled, so the
    // estimate is that span's own thread-CPU time.
    EXPECT_EQ(delta.calls[p], 1);
    EXPECT_EQ(delta.sampled_calls[p], 1);
    EXPECT_GT(delta.sampled_cpu_seconds[p], 0.0);
    EXPECT_DOUBLE_EQ(delta.cpu_seconds[p], delta.sampled_cpu_seconds[p]);
}

TEST(PhaseTimer, CpuEstimatorScalesSampleToAllCalls)
{
    constexpr int p = static_cast<int>(obs::Phase::reduction);
    obs::thread_phase_tally().reset();
    obs::set_metrics_enabled(true);
    const auto cpu_start = obs::thread_cpu_ns();
    for (int i = 0; i < 100; ++i) {
        obs::traced(obs::Phase::reduction, "reduction", busy_work);
    }
    const double loop_cpu = 1e-9 * (obs::thread_cpu_ns() - cpu_start);
    obs::set_metrics_enabled(false);
    const auto delta = obs::thread_phase_tally().totals();
    EXPECT_EQ(delta.calls[p], 100);
    // Spans 0, 16, ..., 96 read the thread-CPU clock.
    EXPECT_EQ(delta.sampled_calls[p],
              (100 + obs::cpu_sample_period - 1) / obs::cpu_sample_period);
    // The 7 samples scaled to 100 calls estimate the loop's CPU time; the
    // reference is the loop's own thread-CPU time rather than its wall
    // time, so a preemption during the loop cannot fail the check.
    ASSERT_GT(loop_cpu, 0.0);
    EXPECT_NEAR(delta.cpu_seconds[p], loop_cpu, 0.3 * loop_cpu);
}

TEST(PhaseTimer, NoSampleInWindowFallsBackToWall)
{
    obs::PhaseTotals t;
    t.seconds[0] = 2.0;
    t.calls[0] = 5;
    t.sampled_cpu_seconds[1] = 0.5;
    t.seconds[1] = 9.0;
    t.calls[1] = 4;
    t.sampled_calls[1] = 1;
    t.estimate_cpu();
    EXPECT_DOUBLE_EQ(t.cpu_seconds[0], 2.0);
    EXPECT_DOUBLE_EQ(t.cpu_seconds[1], 2.0);
}

// ---------------------------------------------------------------------
// End to end: real solves on all three paths produce sane attribution
// (bandwidth within (0, peak]) and zero drift alarms.
// ---------------------------------------------------------------------

class AttributionEndToEnd : public ::testing::Test {
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
        obs::thread_phase_tally().reset();
        obs::profile_window().reset();
    }

    struct Problem {
        BatchCsr<real_type> a;
        BatchVector<real_type> b;
    };

    static Problem make_problem(size_type nbatch)
    {
        return make_problem_grid(8, 7, nbatch);
    }

    /// The host-path end-to-end tests use a paper-sized grid (992 rows)
    /// so the solve's phase times clear DriftConfig::min_total_measured
    /// and the drift detector genuinely executes; the SIMT-traced gpusim
    /// test stays on the small grid for speed.
    static Problem make_problem_big(size_type nbatch, bool spd = false)
    {
        return make_problem_grid(32, 31, nbatch, spd);
    }

    /// `spd`: symmetric positive definite (no advection or perturbation),
    /// for CG.
    static Problem make_problem_grid(size_type gx, size_type gy,
                                     size_type nbatch, bool spd = false)
    {
        SyntheticStencilParams params;
        params.seed = 99;
        if (spd) {
            params.advection = 0.0;
            params.perturbation = 0.0;
        }
        auto a = make_synthetic_batch(gx, gy, StencilKind::nine_point,
                                      nbatch, params);
        BatchVector<real_type> b(nbatch, a.rows());
        Rng rng(7);
        for (size_type i = 0; i < nbatch; ++i) {
            for (auto& v : b.entry(i)) {
                v = rng.uniform(-1.0, 1.0);
            }
        }
        return {std::move(a), std::move(b)};
    }

    /// Every `obs.drift.*` gauge, for diagnosing an unexpected alarm.
    static std::string drift_gauges(const obs::MetricsSnapshot& snap)
    {
        std::string out;
        for (const auto& g : snap.gauges) {
            if (g.name.rfind("obs.drift.", 0) == 0) {
                out += g.name + " = " + std::to_string(g.value) + "\n";
            }
        }
        return out;
    }

    /// Every `<prefix>.phase.<name>.gbps` gauge must fall in (0, peak].
    static void expect_sane_bandwidth(const obs::MetricsSnapshot& snap,
                                      const std::string& prefix)
    {
        const double peak = snap.gauge(prefix + ".roofline.peak_gbps");
        ASSERT_GT(peak, 0.0) << prefix;
        int rows = 0;
        for (const auto& g : snap.gauges) {
            const std::string head = prefix + ".phase.";
            if (g.name.rfind(head, 0) != 0 ||
                g.name.size() < 5 ||
                g.name.compare(g.name.size() - 5, 5, ".gbps") != 0) {
                continue;
            }
            ++rows;
            EXPECT_GT(g.value, 0.0) << g.name;
            EXPECT_LE(g.value, peak) << g.name;
        }
        EXPECT_GT(rows, 0) << "no attribution rows under " << prefix;
    }
};

TEST_F(AttributionEndToEnd, ScalarPathAttributesAndStaysWithinRoofline)
{
    auto p = make_problem_big(24);
    obs::set_metrics_enabled(true);
    SolverSettings settings;
    BatchVector<real_type> x(p.a.num_batch(), p.a.rows());
    const auto result = solve_batch(p.a, p.b, x, settings);
    obs::set_metrics_enabled(false);
    ASSERT_TRUE(result.log.all_converged());

    const auto snap = obs::metrics().snapshot();
    expect_sane_bandwidth(snap, "solve");
    EXPECT_EQ(snap.counter("obs.drift.alarms"), 0) << drift_gauges(snap);
    EXPECT_GT(snap.counter("obs.drift.checks"), 0);
    EXPECT_DOUBLE_EQ(snap.gauge("obs.window.samples"), 1.0);
    // The phase gauges decompose the solve. Phase seconds are the sum
    // over the threads that ran it, and each worker's spans run one
    // after another inside the solve's wall window, so their summed
    // seconds stay below the recorded wall time times the team size (at
    // one thread, below the wall time itself).
    double phase_seconds = 0;
    for (const auto& name :
         {"spmv", "precond_apply", "reduction", "update"}) {
        phase_seconds +=
            snap.gauge(std::string("solve.phase.") + name + ".seconds");
    }
    EXPECT_GT(phase_seconds, 0.0);
    EXPECT_LE(phase_seconds, snap.gauge("solve.last_wall_seconds") *
                                 lockstep::max_threads() * 1.001);
}

TEST_F(AttributionEndToEnd, LockstepPathAttributesAndStaysWithinRoofline)
{
    // Both lane algorithms, classic and pipelined. The ledger charges each
    // dot to the phase of the sweep that computes it: pipelined BiCGStab's
    // r_hat.v and dot4 ride the slab's SpMV sweeps, and pipelined CG's r.z
    // is a reduction sweep of its own.
    for (const auto solver : {SolverType::bicgstab, SolverType::cg}) {
        auto p = make_problem_big(24, solver == SolverType::cg);
        for (const bool pipelined : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << (solver == SolverType::cg ? "cg" : "bicgstab")
                         << (pipelined ? " pipelined" : " classic"));
            reset_all();
            obs::set_metrics_enabled(true);
            SolverSettings settings;
            settings.solver = solver;
            settings.pipelined = pipelined;
            settings.lockstep_width = 8;
            BatchVector<real_type> x(p.a.num_batch(), p.a.rows());
            const auto result = solve_batch(p.a, p.b, x, settings);
            obs::set_metrics_enabled(false);
            ASSERT_TRUE(result.log.all_converged());

            const auto snap = obs::metrics().snapshot();
            expect_sane_bandwidth(snap, "solve");
            EXPECT_EQ(snap.counter("obs.drift.alarms"), 0)
                << drift_gauges(snap);
            EXPECT_GT(snap.counter("obs.drift.checks"), 0);
        }
    }
}

TEST_F(AttributionEndToEnd, LockstepSetUpOpensTheScalarPathsSpans)
{
    // With no iterations a solve is all set-up: the set-up residual, the
    // Jacobi inversion and each algorithm's first vectors. The ledger
    // charges that work per system on every path, so lockstep lanes must
    // run each set-up sweep in the span of the phase the scalar path does.
    auto p = make_problem(8);
    for (const auto solver : {SolverType::bicgstab, SolverType::cg}) {
        for (const bool pipelined : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << (solver == SolverType::cg ? "cg" : "bicgstab")
                         << (pipelined ? " pipelined" : " classic"));
            SolverSettings settings;
            settings.solver = solver;
            settings.precond = PrecondType::jacobi;
            settings.pipelined = pipelined;
            settings.max_iterations = 0;
            BatchVector<real_type> x(p.a.num_batch(), p.a.rows());
            obs::set_metrics_enabled(true);
            const auto scalar = solve_batch(p.a, p.b, x, settings);
            settings.lockstep_width = 4;
            const auto lanes = solve_batch(p.a, p.b, x, settings);
            obs::set_metrics_enabled(false);
            ASSERT_EQ(lanes.work.simd_lanes, 4);
            EXPECT_EQ(scalar.phases.calls[static_cast<int>(obs::Phase::spmv)],
                      p.a.num_batch());
            for (int ph = 0; ph < obs::phase_count; ++ph) {
                EXPECT_EQ(lanes.phases.calls[ph], scalar.phases.calls[ph])
                    << obs::phase_name(static_cast<obs::Phase>(ph));
            }
        }
    }
}

TEST_F(AttributionEndToEnd, SimGpuPathAttributesAndStaysWithinRoofline)
{
    auto p = make_problem(6);
    obs::set_metrics_enabled(true);
    SolverSettings settings;
    SimGpuExecutor exec(gpusim::v100());
    BatchVector<real_type> x(p.a.num_batch(), p.a.rows());
    const auto report = exec.solve(to_ell(p.a), p.b, x, settings);
    obs::set_metrics_enabled(false);
    ASSERT_TRUE(report.log.all_converged());

    const auto snap = obs::metrics().snapshot();
    expect_sane_bandwidth(snap, "gpusim");
    EXPECT_EQ(snap.counter("obs.drift.alarms"), 0) << drift_gauges(snap);
    EXPECT_GT(snap.counter("obs.drift.checks"), 0);
    // The device roofline gauges restate the device spec.
    EXPECT_DOUBLE_EQ(snap.gauge("gpusim.roofline.peak_gbps"),
                     gpusim::v100().mem_bw_gbps);
    EXPECT_DOUBLE_EQ(snap.gauge("gpusim.roofline.peak_gflops"),
                     gpusim::v100().peak_fp64_tflops * 1e3);
}

TEST_F(AttributionEndToEnd, ReportRoundTripOverLiveSnapshot)
{
    auto p = make_problem(6);
    obs::set_metrics_enabled(true);
    obs::set_trace_enabled(true);
    SolverSettings settings;
    BatchVector<real_type> x(p.a.num_batch(), p.a.rows());
    const auto result = solve_batch(p.a, p.b, x, settings);
    obs::set_metrics_enabled(false);
    obs::set_trace_enabled(false);
    ASSERT_TRUE(result.log.all_converged());

    obs::MetricsSnapshot doc;
    ASSERT_TRUE(obs::parse_metrics_json(obs::metrics().snapshot_json(), doc));
    std::map<std::string, obs::TraceSpanStats> spans;
    ASSERT_TRUE(
        obs::summarize_trace_json(obs::trace().chrome_trace_json(), spans));
    EXPECT_FALSE(spans.empty());

    const auto report = obs::render_solve_report(doc, spans);
    EXPECT_GT(report.phases, 0);
    EXPECT_EQ(report.drift_alarms, 0);
    EXPECT_EQ(report.bandwidth_violations, 0);
    EXPECT_NE(report.text.find("performance report"), std::string::npos);
    EXPECT_NE(report.text.find("spmv"), std::string::npos);
    EXPECT_NE(report.text.find("PASS"), std::string::npos);
}

TEST_F(AttributionEndToEnd, KernelSpansShareThePhaseTimerStamps)
{
    auto p = make_problem(16);
    obs::set_metrics_enabled(true);
    obs::set_trace_enabled(true);
    SolverSettings settings;
    BatchVector<real_type> x(p.a.num_batch(), p.a.rows());
    const auto result = solve_batch(p.a, p.b, x, settings);
    const auto& delta = result.phases;
    obs::set_metrics_enabled(false);
    obs::set_trace_enabled(false);
    ASSERT_TRUE(result.log.all_converged());
    ASSERT_EQ(obs::trace().dropped(), 0);

    // Each "spmv" kernel event and its phase tally come from the same two
    // steady_clock stamps, so the sums agree to floating-point rounding.
    constexpr int spmv = static_cast<int>(obs::Phase::spmv);
    double traced_us = 0;
    std::int64_t events = 0;
    for (const auto& e : obs::trace().snapshot()) {
        if (std::strcmp(e.cat, "kernel") == 0 &&
            std::strcmp(e.name, "spmv") == 0) {
            traced_us += e.dur_us;
            ++events;
        }
    }
    EXPECT_EQ(events, delta.calls[spmv]);
    EXPECT_GT(delta.seconds[spmv], 0.0);
    EXPECT_NEAR(1e-6 * traced_us, delta.seconds[spmv],
                1e-9 * delta.seconds[spmv]);
}

TEST_F(AttributionEndToEnd, ConcurrentSolvesReportTheirOwnPhaseTotals)
{
    // A solve's phase totals count its own spans only, even while another
    // solve records spans on other threads. Span counts are deterministic,
    // so they must match a solo run of the same batch exactly.
    auto small = make_problem(8);
    auto big = make_problem_big(400);
    SolverSettings settings;
    obs::set_metrics_enabled(true);
    BatchVector<real_type> x_solo(small.a.num_batch(), small.a.rows());
    const auto solo = solve_batch(small.a, small.b, x_solo, settings);
    ASSERT_TRUE(solo.log.all_converged());
    ASSERT_GT(solo.phases.calls[static_cast<int>(obs::Phase::spmv)], 0);

    constexpr int reps = 3;
    std::vector<BatchSolveResult> results(reps);
    std::atomic<bool> big_warm{false};
    std::atomic<bool> small_done{false};
    // Keeps solving the big batch until the small solves have returned.
    // They start once its first solve is done, so they overlap a warm
    // solve rather than its first-call set-up.
    std::thread background([&] {
        BatchVector<real_type> x(big.a.num_batch(), big.a.rows());
        do {
            solve_batch(big.a, big.b, x, settings);
            big_warm = true;
        } while (!small_done);
    });
    std::thread foreground([&] {
        while (!big_warm) {
            std::this_thread::yield();
        }
        BatchVector<real_type> x(small.a.num_batch(), small.a.rows());
        for (auto& result : results) {
            result = solve_batch(small.a, small.b, x, settings);
        }
        small_done = true;
    });
    foreground.join();
    background.join();
    obs::set_metrics_enabled(false);
    for (int rep = 0; rep < reps; ++rep) {
        const auto& result = results[static_cast<std::size_t>(rep)];
        EXPECT_TRUE(result.log.all_converged());
        for (int p = 0; p < obs::phase_count; ++p) {
            EXPECT_EQ(result.phases.calls[p], solo.phases.calls[p])
                << obs::phase_name(static_cast<obs::Phase>(p)) << ", rep "
                << rep;
        }
    }
}

TEST_F(AttributionEndToEnd, MidSolveTelemetryFlipLeavesResultsBitwiseEqual)
{
    auto p = make_problem_big(64);
    SolverSettings settings;
    BatchVector<real_type> reference(p.a.num_batch(), p.a.rows());
    ASSERT_TRUE(solve_batch(p.a, p.b, reference, settings).log
                    .all_converged());

    std::atomic<bool> done{false};
    std::atomic<std::int64_t> flips{0};
    std::thread toggler([&] {
        bool on = true;
        while (!done.load()) {
            obs::set_metrics_enabled(on);
            obs::set_trace_enabled(!on || flips.load() % 3 == 0);
            on = !on;
            flips.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
    });
    for (int rep = 0; rep < 3; ++rep) {
        BatchVector<real_type> x(p.a.num_batch(), p.a.rows());
        solve_batch(p.a, p.b, x, settings);
        EXPECT_EQ(std::memcmp(x.data(), reference.data(),
                              sizeof(real_type) *
                                  static_cast<std::size_t>(x.size())),
                  0)
            << "rep " << rep;
    }
    done.store(true);
    toggler.join();
    obs::set_metrics_enabled(false);
    obs::set_trace_enabled(false);
    EXPECT_GT(flips.load(), 2);

    const auto events = obs::trace().snapshot();
    EXPECT_FALSE(events.empty());
    for (const auto& e : events) {
        EXPECT_GE(e.dur_us, 0.0) << e.name;
    }
}

// ---------------------------------------------------------------------
// Every sweep the ledger charges to a phase runs inside a span of that
// phase. A scalar kernel opens the same spans on every iteration, so its
// span count in a phase is a fixed multiple of the summed iterations,
// plus the spans its set-up opens once per system.
// ---------------------------------------------------------------------

struct SpanCountCase {
    const char* name;
    SolverType solver;
    bool fused;
    bool pipelined;
    obs::Phase phase;
    int per_iteration;
    int per_system;
};

// Keeps the listed test names stable (the default prints raw bytes).
void PrintTo(const SpanCountCase& c, std::ostream* os) { *os << c.name; }

class ScalarPhaseSpans : public AttributionEndToEnd,
                         public ::testing::WithParamInterface<SpanCountCase> {
};

TEST_P(ScalarPhaseSpans, CountAFixedNumberPerIteration)
{
    const auto& c = GetParam();
    // SPD, so CG and Chebyshev apply. A zero tolerance is never met, so
    // every system runs all its iterations in full (no early exit skips
    // the tail of one).
    SyntheticStencilParams params;
    params.advection = 0.0;
    params.perturbation = 0.0;
    const size_type nbatch = 6;
    const auto a = make_synthetic_batch(8, 7, StencilKind::nine_point,
                                        nbatch, params);
    BatchVector<real_type> b(nbatch, a.rows(), 1.0);
    BatchVector<real_type> x(nbatch, a.rows());
    SolverSettings settings;
    settings.solver = c.solver;
    settings.fused_kernels = c.fused;
    settings.pipelined = c.pipelined;
    settings.tolerance = 0.0;
    settings.max_iterations = 5;
    // GMRES(1): every iteration is a whole restart cycle, so it opens the
    // same spans each time. The other solvers ignore the setting.
    settings.gmres_restart = 1;
    obs::set_metrics_enabled(true);
    const auto result = solve_batch(a, b, x, settings);
    obs::set_metrics_enabled(false);

    const std::int64_t iterations = result.log.total_iterations();
    ASSERT_EQ(iterations, settings.max_iterations * nbatch);
    EXPECT_EQ(result.phases.calls[static_cast<int>(c.phase)],
              c.per_iteration * iterations + c.per_system * nbatch)
        << obs::phase_name(c.phase);
}

using obs::Phase;
INSTANTIATE_TEST_SUITE_P(
    Solvers, ScalarPhaseSpans,
    ::testing::Values(
        // x, r and p updates; the set-up residual and the first p.
        SpanCountCase{"cg", SolverType::cg, true, false, Phase::update, 3, 2},
        SpanCountCase{"cg_pipelined", SolverType::cg, true, true,
                      Phase::update, 3, 2},
        // x, r/r_hat and p/p_hat updates; the set-up residual, r_hat and
        // the first p/p_hat.
        SpanCountCase{"bicg", SolverType::bicg, true, false, Phase::update,
                      3, 3},
        // u/p, q/t, x and r updates; the set-up residual and r_hat.
        SpanCountCase{"cgs", SolverType::cgs, true, false, Phase::update, 4,
                      2},
        // p, x and r updates; the set-up residual.
        SpanCountCase{"chebyshev", SolverType::chebyshev, true, false,
                      Phase::update, 3, 1},
        // The residual and x updates; the residual after the last one.
        SpanCountCase{"richardson", SolverType::richardson, true, false,
                      Phase::update, 2, 1},
        // v_0 = r / beta, w -= h_00 v_0, v_1 = w / h_10, the V y sum,
        // x += M^-1 V y and the restart residual; the set-up residual.
        SpanCountCase{"gmres", SolverType::gmres, true, false, Phase::update,
                      6, 1},
        // h_00, ||w|| and the restart residual's norm; the set-up ||r||.
        SpanCountCase{"gmres_reduction", SolverType::gmres, true, false,
                      Phase::reduction, 3, 1},
        // p, s, x and r updates; the set-up residual sweep with the
        // r_hat copy and the p and v fills.
        SpanCountCase{"bicgstab", SolverType::bicgstab, true, false,
                      Phase::update, 4, 1},
        SpanCountCase{"bicgstab_pipelined", SolverType::bicgstab, true, true,
                      Phase::update, 4, 1},
        // rho, r_hat.v and the t.t/t.s dual dot.
        SpanCountCase{"bicgstab_reduction", SolverType::bicgstab, true,
                      false, Phase::reduction, 3, 0},
        // r_hat.v and dot4; the first rho.
        SpanCountCase{"bicgstab_pipelined_reduction", SolverType::bicgstab,
                      true, true, Phase::reduction, 2, 1},
        // rho, r_hat.v, ||s||, t.t, t.s and ||r||; the set-up ||r||.
        SpanCountCase{"bicgstab_unfused_reduction", SolverType::bicgstab,
                      false, false, Phase::reduction, 6, 1}),
    [](const ::testing::TestParamInfo<SpanCountCase>& info) {
        return std::string(info.param.name);
    });

TEST_F(AttributionEndToEnd, TraceDropGaugeAndWarnOnce)
{
    obs::trace().set_shard_capacity(4);
    obs::set_trace_enabled(true);
    obs::set_metrics_enabled(true);
    for (int i = 0; i < 12; ++i) {
        obs::ScopedSpan span("overflow_span", "test");
    }
    obs::set_trace_enabled(false);
    obs::sync_trace_dropped_gauge();
    obs::set_metrics_enabled(false);
    EXPECT_GT(obs::trace().dropped(), 0);
    EXPECT_DOUBLE_EQ(obs::metrics().snapshot().gauge("obs.trace.dropped"),
                     static_cast<double>(obs::trace().dropped()));
}

}  // namespace
}  // namespace bsis
