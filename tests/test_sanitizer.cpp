// SIMT sanitizer tests: seeded-bug detection (a reduction with a dropped
// barrier, shrunk allocations, divergent barriers) and the hardened tier
// asserting every shipped traced kernel is violation-free at warp widths
// 32 and 64 across storage configurations.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/solver.hpp"
#include "core/storage_config.hpp"
#include "exec/executor.hpp"
#include "gpusim/cache.hpp"
#include "gpusim/device.hpp"
#include "gpusim/sanitizer.hpp"
#include "gpusim/simt.hpp"
#include "gpusim/simt_kernels.hpp"
#include "matrix/conversions.hpp"
#include "matrix/stencil.hpp"

namespace bsis::gpusim {
namespace {

constexpr std::int64_t kib = 1024;

MemoryHierarchy test_mem() { return MemoryHierarchy(128 * kib, 6144 * kib); }

/// A copy of trace_dot's cross-warp reduction with the barrier between the
/// partial stores and the warp-0 combine DELIBERATELY REMOVED -- the classic
/// shared-memory reduction bug the sanitizer exists to catch.
void buggy_dot_no_barrier(BlockTracer& tracer, index_type n,
                          std::uint64_t a_base, std::uint64_t scratch_base)
{
    tracer.set_kernel("buggy_dot");
    const int warp = tracer.warp_size();
    const int warps = tracer.num_warps();
    std::vector<std::uint64_t> addrs;
    std::vector<std::uint64_t> one(1);
    for (index_type i0 = 0; i0 < n; i0 += warp) {
        tracer.set_warp(static_cast<int>((i0 / warp) % warps));
        const int active =
            static_cast<int>(std::min<index_type>(warp, n - i0));
        addrs.clear();
        for (int lane = 0; lane < active; ++lane) {
            addrs.push_back(a_base + static_cast<std::uint64_t>(i0 + lane) *
                                         sizeof(real_type));
        }
        tracer.load_shared(addrs, sizeof(real_type));
        tracer.flop(active, 2);
    }
    for (int w = 0; w < warps; ++w) {
        tracer.set_warp(w);
        one[0] = scratch_base +
                 static_cast<std::uint64_t>(w) * sizeof(real_type);
        tracer.store_shared(one, sizeof(real_type));
    }
    // BUG: missing tracer.barrier() here.
    tracer.set_warp(0);
    addrs.clear();
    for (int w = 0; w < warps; ++w) {
        addrs.push_back(scratch_base +
                        static_cast<std::uint64_t>(w) * sizeof(real_type));
    }
    tracer.load_shared(addrs, sizeof(real_type));
    tracer.barrier();
}

TEST(SanitizerRaces, MissingBarrierReductionIsFlaggedWithAttribution)
{
    auto mem = test_mem();
    BlockTracer tracer(64, 32, &mem);  // 2 warps
    Sanitizer sanitizer;
    tracer.attach_sanitizer(&sanitizer);
    buggy_dot_no_barrier(tracer, 64, /*a_base=*/0,
                         /*scratch_base=*/64 * sizeof(real_type));

    const auto& report = sanitizer.report();
    ASSERT_FALSE(report.clean());
    ASSERT_GT(report.races, 0);
    ASSERT_FALSE(report.violations.empty());
    const auto& v = report.violations.front();
    // Warp 0 reads warp 1's partial before any barrier ordered the store.
    EXPECT_EQ(v.kind, ViolationKind::write_read_race);
    EXPECT_EQ(v.kernel, "buggy_dot");
    EXPECT_EQ(v.warp, 0);
    EXPECT_EQ(v.other_warp, 1);
    EXPECT_EQ(v.epoch, 0);
    EXPECT_EQ(v.address, (64 + 1) * sizeof(real_type));
    EXPECT_NE(v.describe().find("write-read race"), std::string::npos);
    EXPECT_NE(v.describe().find("buggy_dot"), std::string::npos);
}

TEST(SanitizerRaces, BarrierRestoresHappensBefore)
{
    // The same reduction WITH the barrier is clean: the barrier advances
    // the epoch, so the cross-warp read no longer conflicts.
    auto mem = test_mem();
    BlockTracer tracer(64, 32, &mem);
    Sanitizer sanitizer;
    tracer.attach_sanitizer(&sanitizer);
    std::vector<std::uint64_t> one(1);
    for (int w = 0; w < tracer.num_warps(); ++w) {
        tracer.set_warp(w);
        one[0] = static_cast<std::uint64_t>(w) * sizeof(real_type);
        tracer.store_shared(one, sizeof(real_type));
    }
    tracer.barrier();
    tracer.set_warp(0);
    std::vector<std::uint64_t> addrs{0, sizeof(real_type)};
    tracer.load_shared(addrs, sizeof(real_type));
    EXPECT_TRUE(sanitizer.report().clean());
}

TEST(SanitizerRaces, WriteWriteConflictDetected)
{
    auto mem = test_mem();
    BlockTracer tracer(64, 32, &mem);
    Sanitizer sanitizer;
    tracer.attach_sanitizer(&sanitizer);
    std::vector<std::uint64_t> addr{0};
    tracer.set_warp(0);
    tracer.store_shared(addr, sizeof(real_type));
    tracer.set_warp(1);
    tracer.store_shared(addr, sizeof(real_type));
    const auto& report = sanitizer.report();
    ASSERT_EQ(report.races, 1);
    EXPECT_EQ(report.violations.front().kind,
              ViolationKind::write_write_race);
}

TEST(SanitizerRaces, SameWarpAccessesNeverRace)
{
    // Lockstep execution within a warp orders its accesses by construction.
    auto mem = test_mem();
    BlockTracer tracer(64, 32, &mem);
    Sanitizer sanitizer;
    tracer.attach_sanitizer(&sanitizer);
    std::vector<std::uint64_t> addr{0};
    tracer.set_warp(1);
    tracer.store_shared(addr, sizeof(real_type));
    tracer.store_shared(addr, sizeof(real_type));
    tracer.load_shared(addr, sizeof(real_type));
    EXPECT_TRUE(sanitizer.report().clean());
}

TEST(SanitizerBounds, SharedOverrunFlaggedWhenLimitShrunk)
{
    auto mem = test_mem();
    BlockTracer tracer(64, 32, &mem);
    Sanitizer sanitizer;
    // Pretend the block only configured 32 bytes of shared memory.
    sanitizer.set_shared_limit(32);
    tracer.attach_sanitizer(&sanitizer);
    std::vector<std::uint64_t> addrs;
    for (int lane = 0; lane < 8; ++lane) {
        addrs.push_back(static_cast<std::uint64_t>(lane) *
                        sizeof(real_type));
    }
    tracer.store_shared(addrs, sizeof(real_type));  // lanes 4..7 overrun
    const auto& report = sanitizer.report();
    EXPECT_EQ(report.oob_accesses, 4);
    EXPECT_EQ(report.races, 0);
    ASSERT_FALSE(report.violations.empty());
    EXPECT_EQ(report.violations.front().kind, ViolationKind::shared_oob);
    EXPECT_EQ(report.violations.front().address, 32u);
}

TEST(SanitizerBounds, GlobalAccessOutsideRegisteredBuffersFlagged)
{
    auto mem = test_mem();
    BlockTracer tracer(64, 32, &mem);
    Sanitizer sanitizer;
    const std::uint64_t base = std::uint64_t{1} << 32;
    sanitizer.register_buffer("values", base, 16 * sizeof(real_type));
    tracer.attach_sanitizer(&sanitizer);
    std::vector<std::uint64_t> addrs;
    for (int lane = 0; lane < 4; ++lane) {
        addrs.push_back(base + static_cast<std::uint64_t>(14 + lane) *
                                   sizeof(real_type));
    }
    tracer.load_global(addrs, sizeof(real_type));  // lanes 2,3 overrun
    const auto& report = sanitizer.report();
    EXPECT_EQ(report.oob_accesses, 2);
    EXPECT_EQ(report.violations.front().kind, ViolationKind::global_oob);
}

TEST(SanitizerBounds, UnarmedGlobalCheckIgnoresEverything)
{
    // Without registered buffers the global bounds check is disarmed (the
    // caller opted out), so arbitrary addresses pass.
    auto mem = test_mem();
    BlockTracer tracer(64, 32, &mem);
    Sanitizer sanitizer;
    tracer.attach_sanitizer(&sanitizer);
    std::vector<std::uint64_t> addrs{0xdeadbeef};
    tracer.load_global(addrs, sizeof(real_type));
    EXPECT_TRUE(sanitizer.report().clean());
}

TEST(SanitizerBarriers, DivergentBarrierFlagged)
{
    auto mem = test_mem();
    BlockTracer tracer(64, 32, &mem);
    Sanitizer sanitizer;
    tracer.attach_sanitizer(&sanitizer);
    tracer.barrier(32);  // only one of the two warps arrives
    const auto& report = sanitizer.report();
    EXPECT_EQ(report.barrier_divergences, 1);
    EXPECT_EQ(report.violations.front().kind,
              ViolationKind::barrier_divergence);
    EXPECT_EQ(report.violations.front().address, 32u);
    // The full barrier is fine.
    tracer.barrier();
    EXPECT_EQ(sanitizer.report().barrier_divergences, 1);
}

TEST(SanitizerReportTest, SummariesAndRecordingCap)
{
    Sanitizer sanitizer(/*max_recorded=*/2);
    EXPECT_EQ(sanitizer.report().summary(),
              "sanitizer: clean (0 violations)");
    for (int i = 0; i < 5; ++i) {
        sanitizer.on_barrier(1, 64);
    }
    const auto& report = sanitizer.report();
    EXPECT_EQ(report.total_violations, 5);
    EXPECT_EQ(report.barrier_divergences, 5);
    EXPECT_EQ(report.violations.size(), 2u);  // capped
    EXPECT_NE(report.summary().find("5 violation(s)"), std::string::npos);
}

// ---- hardened tier: every shipped traced kernel must be clean ----------

class CleanKernels : public ::testing::TestWithParam<int> {
protected:
    CleanKernels()
        : pattern_(make_stencil_pattern(8, 8, StencilKind::nine_point)),
          csr_(1, pattern_.rows(), pattern_.row_ptrs, pattern_.col_idxs),
          ell_(to_ell(csr_))
    {}

    int warp_size() const { return GetParam(); }
    int block_threads() const { return 2 * warp_size(); }

    StencilPattern pattern_;
    BatchCsr<real_type> csr_;
    BatchEll<real_type> ell_;
};

TEST_P(CleanKernels, FusedBicgstabAcrossStorageConfigs)
{
    const index_type rows = pattern_.rows();
    const index_type nnz = csr_.nnz_per_entry();
    // Shared capacities chosen so the solver runs all-shared, partially
    // spilled, and fully spilled.
    const size_type full = 64 * kib;
    const size_type partial =
        4 * static_cast<size_type>(rows + warp_size()) * sizeof(real_type);
    for (const size_type capacity : {full, partial, size_type{0}}) {
        for (const int precond_vecs : {1, 0}) {
            const auto config = configure_storage(
                bicgstab_slots(precond_vecs), rows, warp_size(),
                sizeof(real_type), capacity);
            for (const auto format :
                 {TracedFormat::csr, TracedFormat::ell}) {
                // ELL stores rows * nnz_per_row (padded) pattern entries.
                const index_type nnz_stored = format == TracedFormat::csr
                                                  ? nnz
                                                  : ell_.stored_per_entry();
                const auto map = AddressMap::for_system(
                    0, rows, nnz_stored, config.num_global);
                auto mem = test_mem();
                BlockTracer tracer(block_threads(), warp_size(), &mem);
                Sanitizer sanitizer;
                sanitizer.set_shared_limit(
                    traced_shared_bytes(config, tracer.num_warps()));
                register_map_buffers(sanitizer, map, rows, nnz_stored,
                                     format == TracedFormat::csr,
                                     config.num_global);
                tracer.attach_sanitizer(&sanitizer);
                trace_bicgstab(tracer, map, format, pattern_.row_ptrs,
                               pattern_.col_idxs, ell_.col_idxs(), rows,
                               ell_.nnz_per_row(), 3, config);
                EXPECT_TRUE(sanitizer.report().clean())
                    << "warp=" << warp_size() << " capacity=" << capacity
                    << " precond=" << precond_vecs << " format="
                    << (format == TracedFormat::csr ? "csr" : "ell")
                    << "\n"
                    << sanitizer.report().summary() << "\n"
                    << (sanitizer.report().violations.empty()
                            ? ""
                            : sanitizer.report()
                                  .violations.front()
                                  .describe());
            }
        }
    }
}

TEST_P(CleanKernels, StandaloneKernelsClean)
{
    const index_type rows = pattern_.rows();
    // The ELL stored size covers the CSR extents too (padding only adds).
    const index_type nnz = ell_.stored_per_entry();
    const auto map = AddressMap::for_system(0, rows, nnz, 2);
    const auto vec_bytes =
        static_cast<std::uint64_t>(rows) * sizeof(real_type);
    auto mem = test_mem();
    BlockTracer tracer(block_threads(), warp_size(), &mem);
    Sanitizer sanitizer;
    // Two reduction scratch slots per warp: the fused dual-dot publishes
    // two partials per warp.
    sanitizer.set_shared_limit(
        static_cast<size_type>(3 * vec_bytes) +
        tracer.num_warps() * 2 * static_cast<size_type>(sizeof(real_type)));
    register_map_buffers(sanitizer, map, rows, nnz, true, 2);
    tracer.attach_sanitizer(&sanitizer);

    const std::uint64_t x = 0, y = vec_bytes, z = 2 * vec_bytes;
    const std::uint64_t scratch = 3 * vec_bytes;
    trace_spmv_csr(tracer, map, pattern_.row_ptrs, pattern_.col_idxs, x, y);
    trace_spmv_ell(tracer, map, rows, ell_.nnz_per_row(), ell_.col_idxs(),
                   x, y);
    trace_dot(tracer, rows, x, y, scratch);
    trace_dot(tracer, rows, z, z, scratch);  // norm; scratch reuse is clean
    trace_dot2(tracer, rows, x, x, y, scratch);  // dual-dot, 2 slots/warp
    trace_axpy(tracer, rows, {x, y}, z);
    trace_axpy_nrm2(tracer, rows, {x, y}, z, scratch);
    trace_axpy_nrm2(tracer, rows, {map.b, map.spill_vec(0)},
                    map.spill_vec(1), scratch);  // spilled operands
    trace_axpy(tracer, rows, {map.b, map.spill_vec(0)}, map.spill_vec(1));
    EXPECT_TRUE(sanitizer.report().clean())
        << sanitizer.report().summary();
}

TEST_P(CleanKernels, SanitizerIsObservationOnly)
{
    const index_type rows = pattern_.rows();
    const index_type nnz = csr_.nnz_per_entry();
    const auto config =
        configure_storage(bicgstab_slots(1), rows, warp_size(),
                          sizeof(real_type), 64 * kib);
    const auto map =
        AddressMap::for_system(0, rows, nnz, config.num_global);

    auto run = [&](Sanitizer* sanitizer) {
        auto mem = test_mem();
        BlockTracer tracer(block_threads(), warp_size(), &mem);
        tracer.attach_sanitizer(sanitizer);
        trace_bicgstab(tracer, map, TracedFormat::ell, pattern_.row_ptrs,
                       pattern_.col_idxs, ell_.col_idxs(), rows,
                       ell_.nnz_per_row(), 5, config);
        return tracer.counters();
    };
    Sanitizer sanitizer;
    const auto with = run(&sanitizer);
    const auto without = run(nullptr);
    EXPECT_EQ(with.warp_instructions, without.warp_instructions);
    EXPECT_EQ(with.active_lane_sum, without.active_lane_sum);
    EXPECT_EQ(with.shared_accesses, without.shared_accesses);
    EXPECT_EQ(with.flops, without.flops);
    EXPECT_EQ(with.barriers, without.barriers);
}

INSTANTIATE_TEST_SUITE_P(WarpWidths, CleanKernels, ::testing::Values(32, 64));

// ---- executor-level --sanitize plumbing --------------------------------

TEST(SanitizedExecutor, SolveReportsCleanAndIdenticalSolution)
{
    auto a = make_synthetic_batch(8, 8, StencilKind::nine_point, 3, {});
    const index_type n = a.rows();
    BatchVector<real_type> b(3, n, 1.0);
    SolverSettings settings;
    settings.tolerance = 1e-8;

    for (const auto* device : {&v100(), &mi100()}) {
        SimGpuExecutor plain(*device);
        SimGpuExecutor sanitized(*device);
        sanitized.set_sanitize(true);
        ASSERT_TRUE(sanitized.sanitize());

        BatchVector<real_type> x_plain(3, n, 0.0);
        BatchVector<real_type> x_san(3, n, 0.0);
        const auto r_plain = plain.solve(a, b, x_plain, settings);
        const auto r_san = sanitized.solve(a, b, x_san, settings);

        EXPECT_FALSE(r_plain.sanitized);
        ASSERT_TRUE(r_san.sanitized) << device->name;
        EXPECT_TRUE(r_san.sanitizer.clean())
            << device->name << ": " << r_san.sanitizer.summary();
        for (index_type i = 0; i < n; ++i) {
            EXPECT_EQ(x_plain.entry(0)[i], x_san.entry(0)[i]);
        }
        EXPECT_EQ(r_plain.log.iterations(0), r_san.log.iterations(0));

        // The ELL path as well.
        auto ell = to_ell(a);
        BatchVector<real_type> x_ell(3, n, 0.0);
        const auto r_ell = sanitized.solve(ell, b, x_ell, settings);
        ASSERT_TRUE(r_ell.sanitized);
        EXPECT_TRUE(r_ell.sanitizer.clean())
            << device->name << ": " << r_ell.sanitizer.summary();
    }
}

TEST(SanitizedExecutor, NonBicgstabSolveIsNotTraced)
{
    auto a = make_synthetic_batch(8, 8, StencilKind::nine_point, 1, {});
    BatchVector<real_type> b(1, a.rows(), 1.0);
    BatchVector<real_type> x(1, a.rows(), 0.0);
    SolverSettings settings;
    settings.solver = SolverType::cg;
    settings.tolerance = 1e-8;
    SimGpuExecutor exec(v100());
    exec.set_sanitize(true);
    const auto report = exec.solve(a, b, x, settings);
    EXPECT_FALSE(report.sanitized);
    EXPECT_TRUE(report.sanitizer.clean());
}

}  // namespace
}  // namespace bsis::gpusim
