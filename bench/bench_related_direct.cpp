// Sections II and III of the paper position the batched iterative solvers
// against the pre-existing batched DIRECT approaches. This benchmark
// reproduces those comparisons:
//
//  1. Tridiagonal specialists (cuThomasBatch-style one-thread-per-system
//     Thomas, gtsv2-style cyclic reduction; both from the gpusim cost
//     model) on 1D collision-like systems: exact solves vs BiCGStab
//     stopping at the application tolerance -- and the iterative
//     solver's "early stopping" advantage at looser tolerances (Section
//     III: "flexibility provided by the iterative solvers in terms of
//     early stopping ... can make them very attractive even for
//     relatively small problems").
//
//  2. Batched DENSE LU on the 992-row 9-point systems vs dgbsv on the
//     Skylake node (Section II: "using dense solvers on the GPU is not
//     enough to beat the gain obtained from exploiting the banded nature
//     of the matrix on the CPU").
#include <cmath>
#include <iostream>

#include "common.hpp"

namespace {

using namespace bsis;

/// 1D backward-Euler diffusion systems (the tridiagonal analogue of the
/// collision solves) on one shared CSR pattern, one per batch entry, with
/// mild per-entry variation.
BatchCsr<real_type> diffusion_batch(size_type num_batch, index_type n,
                                    real_type coupling)
{
    std::vector<index_type> row_ptrs(static_cast<std::size_t>(n) + 1, 0);
    std::vector<index_type> col_idxs;
    for (index_type i = 0; i < n; ++i) {
        if (i > 0) col_idxs.push_back(i - 1);
        col_idxs.push_back(i);
        if (i + 1 < n) col_idxs.push_back(i + 1);
        row_ptrs[static_cast<std::size_t>(i) + 1] =
            static_cast<index_type>(col_idxs.size());
    }
    BatchCsr<real_type> csr(num_batch, n, row_ptrs, col_idxs);
    for (size_type b = 0; b < num_batch; ++b) {
        const real_type c =
            coupling * (1.0 + 0.1 * static_cast<real_type>(b % 7) / 7.0);
        real_type* vals = csr.values(b);
        index_type p = 0;
        for (index_type i = 0; i < n; ++i) {
            if (i > 0) vals[p++] = -c;
            vals[p++] = 1.0 + 2.0 * c;
            if (i + 1 < n) vals[p++] = -c;
        }
    }
    return csr;
}

}  // namespace

int main()
{
    using namespace bsis;
    const auto& device = gpusim::v100();
    const SimGpuExecutor gpu(device);
    const index_type n = 992;

    // --- Part 1: tridiagonal specialists vs batched iterative ---
    Table tri({"batch", "thomas_us", "cyclic_reduction_us",
               "bicgstab_tol1e-10_us", "bicgstab_tol1e-6_us"});
    for (const size_type nbatch : bench::batch_sizes()) {
        const auto csr = diffusion_batch(nbatch, n, 0.8);
        BatchVector<real_type> b(nbatch, n, 1.0);
        BatchVector<real_type> x(nbatch, n);

        SolverSettings s;
        s.tolerance = 1e-10;
        const auto tight = gpu.solve(csr, b, x, s);
        s.tolerance = 1e-6;
        const auto loose = gpu.solve(csr, b, x, s);

        tri.new_row()
            .add(nbatch)
            .add(gpusim::thomas_batched_seconds(device, n, nbatch) * 1e6, 5)
            .add(gpusim::cyclic_reduction_batched_seconds(device, n,
                                                          nbatch) *
                     1e6,
                 5)
            .add(tight.kernel_seconds * 1e6, 5)
            .add(loose.kernel_seconds * 1e6, 5);
    }
    bench::emit("related_tridiag",
                "Related work: batched tridiagonal direct solvers vs "
                "batched BiCGStab (1D collision-like systems, V100 model)",
                tri);

    // --- Part 2: batched dense LU vs the CPU banded solver (Section II) --
    Table dense({"batch", "dense_lu_gpu_ms", "dgbsv_skylake_ms",
                 "bicgstab_skylake_ms", "bicgstab_ell_gpu_ms"});
    const CpuExecutor skylake;
    for (const size_type nbatch : bench::batch_sizes()) {
        bench::XgcBatch problem(nbatch);
        auto ell = to_ell(problem.a);
        BatchVector<real_type> x(nbatch, problem.a.rows());
        SolverSettings s;
        s.tolerance = 1e-10;
        const auto iterative = gpu.solve(ell, problem.rhs(), x, s);
        const auto cpu = skylake.gbsv(problem.a, problem.rhs(), x);
        const auto cpu_iter =
            skylake.iterative(problem.a, problem.rhs(), x, s);
        dense.new_row()
            .add(nbatch)
            .add(gpusim::dense_lu_batched_seconds(device, problem.a.rows(),
                                                  nbatch) *
                     1e3,
                 5)
            .add(cpu.node_seconds * 1e3, 5)
            .add(cpu_iter.node_seconds * 1e3, 5)
            .add(iterative.kernel_seconds * 1e3, 5);
    }
    bench::emit("related_dense",
                "Section II: batched dense LU on the GPU vs banded dgbsv "
                "on the Skylake node vs batched BiCGStab(ELL)",
                dense);

    std::cout
        << "\nShape checks (paper):\n"
           "  * exact tridiagonal solvers win when exactness is required "
           "for 3-diagonal\n    systems, but the iterative solver's early "
           "stopping closes the gap\n"
           "  * dense LU on the GPU does NOT beat the CPU banded solver "
           "at n=992\n"
           "  * the batched iterative solver beats both\n";
    return 0;
}
