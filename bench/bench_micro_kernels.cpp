// google-benchmark microbenchmarks of the host-side (functional) kernels:
// the per-system SpMV in each format, the BLAS building blocks, the fused
// BiCGStab kernel, the banded direct solvers, and the collision-operator
// assembly. These measure THIS machine (the functional layer the
// simulator's arithmetic runs on), not the modeled devices.
#include <benchmark/benchmark.h>

#include <vector>

#include "blas/kernels.hpp"
#include "core/bicgstab.hpp"
#include "core/precond.hpp"
#include "core/solver.hpp"
#include "core/stop.hpp"
#include "lapack/banded_lu.hpp"
#include "lapack/banded_qr.hpp"
#include "matrix/conversions.hpp"
#include "xgc/workload.hpp"

namespace {

using namespace bsis;

/// One ion+electron pair of real collision matrices and right-hand sides.
struct Fixture {
    Fixture()
        : workload(make_params()), a(workload.make_matrix_batch())
    {
        workload.assemble_batch(workload.distributions(),
                                workload.distributions(), 0.0035, a);
        ell = to_ell(a);
        x = BatchVector<real_type>(a.num_batch(), a.rows());
    }

    static xgc::WorkloadParams make_params()
    {
        xgc::WorkloadParams p;
        p.num_mesh_nodes = 8;
        return p;
    }

    xgc::CollisionWorkload workload;
    BatchCsr<real_type> a;
    BatchEll<real_type> ell;
    BatchVector<real_type> x;
};

Fixture& fixture()
{
    static Fixture f;
    return f;
}

void BM_SpmvCsr(benchmark::State& state)
{
    auto& f = fixture();
    const auto b = f.workload.distributions().entry(1);
    auto y = f.x.entry(0);
    for (auto _ : state) {
        spmv(f.a.entry(1), ConstVecView<real_type>(b), y);
        benchmark::DoNotOptimize(y.data);
    }
    state.SetItemsProcessed(state.iterations() * f.a.nnz_per_entry());
}
BENCHMARK(BM_SpmvCsr);

void BM_SpmvEll(benchmark::State& state)
{
    auto& f = fixture();
    const auto b = f.workload.distributions().entry(1);
    auto y = f.x.entry(0);
    for (auto _ : state) {
        spmv(f.ell.entry(1), ConstVecView<real_type>(b), y);
        benchmark::DoNotOptimize(y.data);
    }
    state.SetItemsProcessed(state.iterations() * f.ell.stored_per_entry());
}
BENCHMARK(BM_SpmvEll);

void BM_Dot(benchmark::State& state)
{
    auto& f = fixture();
    const auto a = f.workload.distributions().entry(0);
    const auto b = f.workload.distributions().entry(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(blas::dot<real_type>(a, b));
    }
    state.SetItemsProcessed(state.iterations() * a.len);
}
BENCHMARK(BM_Dot);

// The pipelined solvers' fused multi-output reductions against the
// equivalent sequence of separate dot/nrm2 calls over the same vectors:
// one sweep touching three vectors vs four sweeps touching two each.
void BM_Dot4Fused(benchmark::State& state)
{
    auto& f = fixture();
    const auto x = f.workload.distributions().entry(0);
    const auto y = f.workload.distributions().entry(1);
    const auto z = ConstVecView<real_type>(f.x.entry(0));
    for (auto _ : state) {
        real_type d_xx, d_xy, d_yz, d_xz;
        blas::dot4<real_type>(x, y, z, d_xx, d_xy, d_yz, d_xz);
        benchmark::DoNotOptimize(d_xx);
        benchmark::DoNotOptimize(d_xy);
        benchmark::DoNotOptimize(d_yz);
        benchmark::DoNotOptimize(d_xz);
    }
    state.SetItemsProcessed(state.iterations() * x.len);
}
BENCHMARK(BM_Dot4Fused);

void BM_Dot4Separate(benchmark::State& state)
{
    auto& f = fixture();
    const auto x = f.workload.distributions().entry(0);
    const auto y = f.workload.distributions().entry(1);
    const auto z = ConstVecView<real_type>(f.x.entry(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(blas::dot<real_type>(x, x));
        benchmark::DoNotOptimize(blas::dot<real_type>(x, y));
        benchmark::DoNotOptimize(blas::dot<real_type>(y, z));
        benchmark::DoNotOptimize(blas::dot<real_type>(x, z));
    }
    state.SetItemsProcessed(state.iterations() * x.len);
}
BENCHMARK(BM_Dot4Separate);

void BM_Dot3Nrm2Fused(benchmark::State& state)
{
    auto& f = fixture();
    const auto x = f.workload.distributions().entry(0);
    const auto y = f.workload.distributions().entry(1);
    const auto z = ConstVecView<real_type>(f.x.entry(0));
    for (auto _ : state) {
        real_type d_xy, d_xx, d_xz, z_norm;
        blas::dot3_nrm2_lanes<1>(x.data, y.data, z.data, x.len, &d_xy,
                                 &d_xx, &d_xz, &z_norm);
        benchmark::DoNotOptimize(d_xy);
        benchmark::DoNotOptimize(d_xx);
        benchmark::DoNotOptimize(d_xz);
        benchmark::DoNotOptimize(z_norm);
    }
    state.SetItemsProcessed(state.iterations() * x.len);
}
BENCHMARK(BM_Dot3Nrm2Fused);

void BM_Dot3Nrm2Separate(benchmark::State& state)
{
    auto& f = fixture();
    const auto x = f.workload.distributions().entry(0);
    const auto y = f.workload.distributions().entry(1);
    const auto z = ConstVecView<real_type>(f.x.entry(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(blas::dot<real_type>(x, y));
        benchmark::DoNotOptimize(blas::dot<real_type>(x, x));
        benchmark::DoNotOptimize(blas::dot<real_type>(x, z));
        benchmark::DoNotOptimize(blas::nrm2<real_type>(z));
    }
    state.SetItemsProcessed(state.iterations() * x.len);
}
BENCHMARK(BM_Dot3Nrm2Separate);

void BM_Axpy(benchmark::State& state)
{
    auto& f = fixture();
    const auto a = f.workload.distributions().entry(0);
    auto y = f.x.entry(0);
    for (auto _ : state) {
        blas::axpy<real_type>(1.0000001, a, y);
        benchmark::DoNotOptimize(y.data);
    }
    state.SetItemsProcessed(state.iterations() * a.len);
}
BENCHMARK(BM_Axpy);

void BM_BicgstabElectronSolve(benchmark::State& state)
{
    auto& f = fixture();
    Workspace ws(f.a.rows(), bicgstab_work_vectors + 1);
    const auto b = f.workload.distributions().entry(1);
    auto x = f.x.entry(1);
    for (auto _ : state) {
        blas::fill(x, real_type{0});
        JacobiPrec prec;
        prec.generate(f.ell.entry(1), ws.slot(bicgstab_work_vectors));
        const auto result =
            bicgstab_kernel(f.ell.entry(1), b, x, prec,
                            AbsResidualStop{1e-10}, 500, ws);
        benchmark::DoNotOptimize(result.iterations);
    }
}
BENCHMARK(BM_BicgstabElectronSolve);

void BM_DgbsvSolve(benchmark::State& state)
{
    auto& f = fixture();
    const auto [kl, ku] = bandwidths(f.a);
    for (auto _ : state) {
        state.PauseTiming();
        auto banded = to_banded(f.a, kl, ku);
        std::vector<real_type> rhs(
            f.workload.distributions().entry(1).begin(),
            f.workload.distributions().entry(1).end());
        state.ResumeTiming();
        lapack::gbsv(banded.entry(1),
                     VecView<real_type>{rhs.data(), f.a.rows()});
        benchmark::DoNotOptimize(rhs.data());
    }
}
BENCHMARK(BM_DgbsvSolve);

void BM_BandedQrSolve(benchmark::State& state)
{
    auto& f = fixture();
    const auto [kl, ku] = bandwidths(f.a);
    for (auto _ : state) {
        state.PauseTiming();
        auto banded = to_banded(f.a, kl, ku);
        std::vector<real_type> rhs(
            f.workload.distributions().entry(1).begin(),
            f.workload.distributions().entry(1).end());
        state.ResumeTiming();
        lapack::gbqr_solve(banded.entry(1),
                           VecView<real_type>{rhs.data(), f.a.rows()});
        benchmark::DoNotOptimize(rhs.data());
    }
}
BENCHMARK(BM_BandedQrSolve);

void BM_CollisionAssembly(benchmark::State& state)
{
    auto& f = fixture();
    auto a = f.workload.make_matrix_batch();
    for (auto _ : state) {
        f.workload.assemble_batch(f.workload.distributions(),
                                  f.workload.distributions(), 0.0035, a);
        benchmark::DoNotOptimize(a.data());
    }
    state.SetItemsProcessed(state.iterations() * a.num_batch());
}
BENCHMARK(BM_CollisionAssembly);

}  // namespace
