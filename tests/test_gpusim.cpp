#include <gtest/gtest.h>

#include <vector>

#include "core/storage_config.hpp"
#include "core/work_profile.hpp"
#include "gpusim/cache.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/device.hpp"
#include "gpusim/scheduler.hpp"
#include "gpusim/simt_kernels.hpp"
#include "matrix/conversions.hpp"
#include "matrix/stencil.hpp"

namespace bsis::gpusim {
namespace {

TEST(DeviceSpecs, TableOneNumbers)
{
    // Table I of the paper.
    EXPECT_DOUBLE_EQ(v100().peak_fp64_tflops, 7.8);
    EXPECT_DOUBLE_EQ(v100().mem_bw_gbps, 990);
    EXPECT_EQ(v100().num_cu, 80);
    EXPECT_DOUBLE_EQ(a100().peak_fp64_tflops, 9.7);
    EXPECT_DOUBLE_EQ(a100().mem_bw_gbps, 1555);
    EXPECT_EQ(a100().num_cu, 108);
    EXPECT_DOUBLE_EQ(mi100().peak_fp64_tflops, 11.5);
    EXPECT_EQ(mi100().num_cu, 120);
    EXPECT_EQ(mi100().warp_size, 64);
    EXPECT_EQ(v100().warp_size, 32);
    EXPECT_EQ(skylake_node().total_cores, 40);
    EXPECT_EQ(skylake_node().cores_used, 38);
}

TEST(DeviceSpecs, ProjectionDevicesAreNewerGenerations)
{
    int count = 0;
    const auto* proj = projection_gpus(count);
    ASSERT_EQ(count, 2);
    // H100 dominates A100 on every headline number.
    EXPECT_GT(h100().peak_fp64_tflops, a100().peak_fp64_tflops);
    EXPECT_GT(h100().mem_bw_gbps, a100().mem_bw_gbps);
    EXPECT_GT(h100().l2_mib, a100().l2_mib);
    // MI250X GCD vs MI100: more flops and bandwidth, same CDNA wave width.
    EXPECT_GT(mi250x_gcd().peak_fp64_tflops, mi100().peak_fp64_tflops);
    EXPECT_EQ(mi250x_gcd().warp_size, 64);
    EXPECT_EQ(proj[0].name, "H100");
    EXPECT_EQ(proj[1].name, "MI250X-GCD");
}

TEST(DeviceSpecs, SchedulingPoliciesMatchObservedBehavior)
{
    EXPECT_EQ(mi100().scheduling, SchedulingPolicy::wave_quantized);
    EXPECT_EQ(v100().scheduling, SchedulingPolicy::greedy_dynamic);
    EXPECT_EQ(a100().scheduling, SchedulingPolicy::greedy_dynamic);
}

TEST(Cache, HitsOnRepeatedAccess)
{
    Cache cache(1024, 128, 4);
    EXPECT_FALSE(cache.access(0));
    EXPECT_TRUE(cache.access(0));
    EXPECT_TRUE(cache.access(64));  // same 128 B line
    EXPECT_FALSE(cache.access(128));
    EXPECT_EQ(cache.stats().accesses, 4);
    EXPECT_EQ(cache.stats().hits, 2);
}

TEST(Cache, LruEvictionWithinSet)
{
    // 2 sets x 2 ways x 128 B lines = 512 B. Addresses 0, 256, 512 map to
    // set 0; the third access evicts the LRU line (0).
    Cache cache(512, 128, 2);
    cache.access(0);
    cache.access(256);
    cache.access(512);
    EXPECT_FALSE(cache.access(0));   // evicted
    EXPECT_TRUE(cache.access(512));  // still resident
}

TEST(Cache, InvalidateDropsContentKeepsStats)
{
    Cache cache(1024, 128, 4);
    cache.access(0);
    cache.invalidate();
    EXPECT_FALSE(cache.access(0));
    EXPECT_EQ(cache.stats().accesses, 2);
}

TEST(Coalescing, ConsecutiveDoublesFormMinimalSegments)
{
    std::vector<std::uint64_t> addrs;
    for (int lane = 0; lane < 32; ++lane) {
        addrs.push_back(lane * 8);
    }
    std::vector<std::uint64_t> segs;
    coalesce(addrs, 8, 128, segs);
    EXPECT_EQ(segs.size(), 2u);  // 256 bytes = 2 x 128 B transactions
}

TEST(Coalescing, ScatteredAccessesExplode)
{
    std::vector<std::uint64_t> addrs;
    for (int lane = 0; lane < 32; ++lane) {
        addrs.push_back(static_cast<std::uint64_t>(lane) * 4096);
    }
    std::vector<std::uint64_t> segs;
    coalesce(addrs, 8, 128, segs);
    EXPECT_EQ(segs.size(), 32u);
}

TEST(Coalescing, StraddlingAccessTouchesTwoSegments)
{
    std::vector<std::uint64_t> addrs{124};  // 8 bytes crossing 128
    std::vector<std::uint64_t> segs;
    coalesce(addrs, 8, 128, segs);
    EXPECT_EQ(segs.size(), 2u);
}

TEST(Scheduler, WaveQuantizedStepsAtSlotMultiples)
{
    // Uniform 1 ms blocks, 120 slots: the makespan is constant within a
    // wave and jumps exactly at multiples of 120 (the paper's MI100
    // observation).
    const auto time_for = [](int nbatch) {
        std::vector<double> durations(static_cast<std::size_t>(nbatch),
                                      1e-3);
        return schedule_blocks(durations, 120,
                               SchedulingPolicy::wave_quantized);
    };
    EXPECT_DOUBLE_EQ(time_for(1).makespan_seconds, 1e-3);
    EXPECT_DOUBLE_EQ(time_for(120).makespan_seconds, 1e-3);
    EXPECT_DOUBLE_EQ(time_for(121).makespan_seconds, 2e-3);
    EXPECT_DOUBLE_EQ(time_for(240).makespan_seconds, 2e-3);
    EXPECT_EQ(time_for(241).num_waves, 3);
}

TEST(Scheduler, GreedyDynamicIsSmoothAcrossSlotBoundary)
{
    // With mixed durations, greedy backfills: adding one more block after
    // a slot boundary grows the makespan by (at most) one SHORT block.
    std::vector<double> durations;
    for (int i = 0; i < 80; ++i) {
        durations.push_back(i % 2 == 0 ? 2e-3 : 0.5e-3);
    }
    const auto base =
        schedule_blocks(durations, 80, SchedulingPolicy::greedy_dynamic);
    durations.push_back(0.5e-3);
    const auto plus =
        schedule_blocks(durations, 80, SchedulingPolicy::greedy_dynamic);
    EXPECT_LE(plus.makespan_seconds, base.makespan_seconds + 0.5e-3 + 1e-12);
    // Wave-quantized would jump by a FULL long block instead.
    const auto wave =
        schedule_blocks(durations, 80, SchedulingPolicy::wave_quantized);
    EXPECT_GT(wave.makespan_seconds, plus.makespan_seconds);
}

TEST(Scheduler, GreedyMakespanBounds)
{
    std::vector<double> durations{3e-3, 1e-3, 1e-3, 1e-3, 2e-3, 1e-3};
    const auto result =
        schedule_blocks(durations, 2, SchedulingPolicy::greedy_dynamic);
    double total = 0;
    double longest = 0;
    for (const auto d : durations) {
        total += d;
        longest = std::max(longest, d);
    }
    EXPECT_GE(result.makespan_seconds, total / 2 - 1e-12);
    EXPECT_GE(result.makespan_seconds, longest);
    EXPECT_LE(result.makespan_seconds, total);
}

TEST(Scheduler, EmptyAndInvalidInputs)
{
    EXPECT_DOUBLE_EQ(
        schedule_blocks({}, 4, SchedulingPolicy::greedy_dynamic)
            .makespan_seconds,
        0.0);
    EXPECT_THROW(
        schedule_blocks({1e-3}, 0, SchedulingPolicy::greedy_dynamic),
        BadArgument);
}

class CostModelFixture : public ::testing::Test {
protected:
    SystemShape shape_{992, 8928, 9};  // the paper's ELL-stored matrix

    StorageConfig config_for(const DeviceSpec& d) const
    {
        return configure_storage(
            bicgstab_slots(1), shape_.rows, d.warp_size, sizeof(real_type),
            static_cast<size_type>(d.max_shared_kib_per_block * 1024));
    }

    BlockCost cost(const DeviceSpec& d, BatchFormat fmt,
                   int blocks_per_cu = 2) const
    {
        return block_cost(d, shape_, fmt, 992, config_for(d),
                          work_profile(SolverType::bicgstab),
                          blocks_per_cu);
    }
};

TEST_F(CostModelFixture, EllSpmvFasterThanCsrOnEveryGpu)
{
    for (const auto* d : {&v100(), &a100(), &mi100()}) {
        EXPECT_LT(cost(*d, BatchFormat::ell).spmv_us,
                  cost(*d, BatchFormat::csr).spmv_us)
            << d->name;
    }
}

TEST_F(CostModelFixture, CsrPenaltyWorseOnWiderWavefronts)
{
    // The paper attributes the larger ELL speedup on the MI100 to its
    // 64-wide wavefronts leaving more lanes idle at 9 nnz/row.
    const double nv_ratio = cost(v100(), BatchFormat::csr).spmv_us /
                            cost(v100(), BatchFormat::ell).spmv_us;
    const double amd_ratio = cost(mi100(), BatchFormat::csr, 1).spmv_us /
                             cost(mi100(), BatchFormat::ell, 1).spmv_us;
    EXPECT_GT(amd_ratio, nv_ratio);
}

TEST_F(CostModelFixture, IterationTimeScalesWithIterations)
{
    const auto c = cost(a100(), BatchFormat::ell);
    EXPECT_GT(c.per_iteration_us, 0);
    EXPECT_NEAR(c.block_us(30) - c.block_us(20), 10 * c.per_iteration_us,
                1e-9);
}

TEST_F(CostModelFixture, MoreBlocksPerCuSlowEachBlock)
{
    const auto c1 = cost(a100(), BatchFormat::ell, 1);
    const auto c2 = cost(a100(), BatchFormat::ell, 2);
    EXPECT_GT(c2.per_iteration_us, c1.per_iteration_us);
    // But never more than 2x (latency terms are shared).
    EXPECT_LT(c2.per_iteration_us, 2 * c1.per_iteration_us);
}

TEST_F(CostModelFixture, DirectQrCostsMoreThanManyBicgstabIterations)
{
    // Fig. 6: the batched QR is 10-30x slower than batched BiCGStab.
    const double qr = direct_qr_system_seconds(v100(), 992, 33, 33);
    const auto bicgstab = cost(v100(), BatchFormat::csr);
    // Compare per-device-slot throughput: QR time vs a 20-iteration solve
    // spread over the V100's 160 resident blocks.
    const double solve_slot_time = bicgstab.block_us(20) * 1e-6 / 160;
    EXPECT_GT(qr, 8 * solve_slot_time);
}

TEST(CostModel, CpuGbsvMatchesFlopModel)
{
    const auto& cpu = skylake_node();
    const double t = cpu_gbsv_system_seconds(cpu, 992, 33, 33);
    // ~4.5 MFlop at 10 GFlop/s effective: ~0.45 ms.
    EXPECT_GT(t, 1e-4);
    EXPECT_LT(t, 2e-3);
}

TEST(CostModel, TridiagonalSpecialistsScaleSensibly)
{
    const auto& d = v100();
    // Thomas is latency-floored at small batch; throughput takes over.
    const double small = thomas_batched_seconds(d, 992, 16);
    const double large = thomas_batched_seconds(d, 992, 100000);
    EXPECT_GT(large, small);
    EXPECT_NEAR(small, thomas_batched_seconds(d, 992, 1), 1e-9);
    // Cyclic reduction pays log-depth latency but less serial time.
    const double cr_small = cyclic_reduction_batched_seconds(d, 992, 16);
    EXPECT_GT(cr_small, 0);
    EXPECT_GT(cyclic_reduction_batched_seconds(d, 992, 100000), cr_small);
}

TEST(CostModel, DenseLuFarSlowerThanBandedApproaches)
{
    // Section II: dense solvers on the GPU lose at n = 992.
    const auto& d = v100();
    const double dense = dense_lu_batched_seconds(d, 992, 960);
    const double cpu_banded =
        cpu_gbsv_system_seconds(skylake_node(), 992, 33, 33) * 960 / 38;
    EXPECT_GT(dense, cpu_banded);
}

TEST(CostModel, TransferTimesScaleWithBytes)
{
    const double t1 = transfer_seconds(v100(), 1e6);
    const double t2 = transfer_seconds(v100(), 2e6);
    EXPECT_GT(t2, t1);
    EXPECT_NEAR(t2 - t1, 1e6 / (v100().link_bw_gbps * 1e9), 1e-9);
}

class SimtTraceFixture : public ::testing::Test {
protected:
    SimtTraceFixture()
        : pattern_(make_stencil_pattern(32, 31, StencilKind::nine_point)),
          csr_(1, pattern_.rows(), pattern_.row_ptrs, pattern_.col_idxs),
          ell_(to_ell(csr_))
    {}

    StencilPattern pattern_;
    BatchCsr<real_type> csr_;
    BatchEll<real_type> ell_;
};

TEST_F(SimtTraceFixture, EllSpmvNearFullWarpUtilization)
{
    MemoryHierarchy mem(128 * 1024, 6 * 1024 * 1024);
    BlockTracer tracer(992, 32, &mem);
    const auto map = AddressMap::for_system(0, 992, 8928, 0);
    trace_spmv_ell(tracer, map, 992, 9, ell_.col_idxs(), shared_space,
                   shared_space);
    // Table II: ELL warp use ~98%.
    EXPECT_GT(tracer.counters().warp_utilization(32), 0.9);
}

TEST_F(SimtTraceFixture, CsrSpmvUnderutilizesWarps)
{
    MemoryHierarchy mem(128 * 1024, 6 * 1024 * 1024);
    BlockTracer tracer(992, 32, &mem);
    const auto map = AddressMap::for_system(0, 992, 8928, 0);
    trace_spmv_csr(tracer, map, pattern_.row_ptrs, pattern_.col_idxs,
                   shared_space, shared_space);
    // 9 active lanes of 32 in the load phase: utilization far below ELL.
    EXPECT_LT(tracer.counters().warp_utilization(32), 0.6);
}

TEST_F(SimtTraceFixture, CsrWorseOnSixtyFourWideWavefronts)
{
    MemoryHierarchy mem32(128 * 1024, 6 * 1024 * 1024);
    MemoryHierarchy mem64(80 * 1024, 8 * 1024 * 1024);
    BlockTracer t32(992, 32, &mem32);
    BlockTracer t64(1024, 64, &mem64);
    const auto map = AddressMap::for_system(0, 992, 8928, 0);
    trace_spmv_csr(t32, map, pattern_.row_ptrs, pattern_.col_idxs,
                   shared_space, shared_space);
    trace_spmv_csr(t64, map, pattern_.row_ptrs, pattern_.col_idxs,
                   shared_space, shared_space);
    EXPECT_LT(t64.counters().warp_utilization(64),
              t32.counters().warp_utilization(32));
}

TEST_F(SimtTraceFixture, RepeatedSpmvHitsInL1)
{
    // The matrix fits in a V100-sized L1 after the first iteration.
    MemoryHierarchy mem(128 * 1024, 6 * 1024 * 1024);
    BlockTracer tracer(992, 32, &mem);
    const auto map = AddressMap::for_system(0, 992, 8928, 0);
    trace_spmv_ell(tracer, map, 992, 9, ell_.col_idxs(), shared_space,
                   shared_space);
    const auto cold_hits = mem.l1_stats().hits;
    const auto cold_accesses = mem.l1_stats().accesses;
    trace_spmv_ell(tracer, map, 992, 9, ell_.col_idxs(), shared_space,
                   shared_space);
    const double warm_rate =
        static_cast<double>(mem.l1_stats().hits - cold_hits) /
        static_cast<double>(mem.l1_stats().accesses - cold_accesses);
    EXPECT_GT(warm_rate, 0.95);
}

TEST_F(SimtTraceFixture, FullBicgstabTraceMatchesTableTwoShape)
{
    // Warp utilization of the whole fused solve: high for ELL, lower for
    // CSR (Table II of the paper).
    const auto config = configure_storage(
        bicgstab_slots(1), 992, 32, sizeof(real_type), 48 * 1024);
    const auto map = AddressMap::for_system(
        0, 992, 8928, config.num_global);
    MemoryHierarchy mem_ell(128 * 1024, 6 * 1024 * 1024);
    BlockTracer ell_tracer(992, 32, &mem_ell);
    trace_bicgstab(ell_tracer, map, TracedFormat::ell, pattern_.row_ptrs,
                   pattern_.col_idxs, ell_.col_idxs(), 992, 9, 10, config);
    MemoryHierarchy mem_csr(128 * 1024, 6 * 1024 * 1024);
    BlockTracer csr_tracer(1024, 32, &mem_csr);
    trace_bicgstab(csr_tracer, map, TracedFormat::csr, pattern_.row_ptrs,
                   pattern_.col_idxs, ell_.col_idxs(), 992, 9, 10, config);

    const double ell_util = ell_tracer.counters().warp_utilization(32);
    const double csr_util = csr_tracer.counters().warp_utilization(32);
    EXPECT_GT(ell_util, 0.9);
    EXPECT_LT(csr_util, ell_util);
    EXPECT_GT(csr_util, 0.15);
    // Both traces really hit the cache hierarchy.
    EXPECT_GT(mem_ell.l1_stats().accesses, 0);
    EXPECT_GT(mem_ell.l1_stats().hit_rate(), 0.2);
    EXPECT_GT(mem_csr.l2_stats().accesses, 0);
}

TEST(AddressMapTest, SharedPatternSameAcrossSystems)
{
    const auto m0 = AddressMap::for_system(0, 992, 8928, 3);
    const auto m1 = AddressMap::for_system(1, 992, 8928, 3);
    EXPECT_EQ(m0.col_idxs, m1.col_idxs);
    EXPECT_EQ(m0.row_ptrs, m1.row_ptrs);
    EXPECT_NE(m0.values, m1.values);
    EXPECT_NE(m0.b, m1.b);
    EXPECT_NE(m0.spill_vec(0), m1.spill_vec(0));
    EXPECT_EQ(m0.spill_vec(1) - m0.spill_vec(0), 992 * 8);
}

}  // namespace
}  // namespace bsis::gpusim
