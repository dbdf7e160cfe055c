#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "lapack/banded_lu.hpp"
#include "lapack/banded_qr.hpp"
#include "lapack/dense.hpp"
#include "lapack/eigen.hpp"
#include "matrix/conversions.hpp"
#include "matrix/stencil.hpp"
#include "util/rng.hpp"

namespace bsis {
namespace {

using lapack::eigenvalues;

/// Random banded matrix made safely nonsingular via diagonal dominance.
BatchBanded<real_type> random_banded(size_type nbatch, index_type n,
                                     index_type kl, index_type ku,
                                     std::uint64_t seed)
{
    BatchBanded<real_type> banded(nbatch, n, kl, ku);
    Rng rng(seed);
    for (size_type b = 0; b < nbatch; ++b) {
        auto view = banded.entry(b);
        for (index_type i = 0; i < n; ++i) {
            real_type off = 0;
            for (index_type j = std::max<index_type>(0, i - kl);
                 j <= std::min<index_type>(n - 1, i + ku); ++j) {
                if (j != i) {
                    view(i, j) = rng.uniform(-1.0, 1.0);
                    off += std::abs(view(i, j));
                }
            }
            view(i, i) = off + 1.0 + rng.uniform();
        }
    }
    return banded;
}

/// Residual ||A x - b||_inf computed from an unfactorized copy.
real_type banded_residual(const BatchBanded<real_type>& a_orig,
                          size_type entry, const std::vector<real_type>& x,
                          const std::vector<real_type>& b)
{
    auto view = const_cast<BatchBanded<real_type>&>(a_orig).entry(entry);
    const index_type n = view.n;
    real_type worst = 0;
    for (index_type i = 0; i < n; ++i) {
        real_type sum = 0;
        for (index_type j = std::max<index_type>(0, i - view.kl);
             j <= std::min<index_type>(n - 1, i + view.ku); ++j) {
            sum += view(i, j) * x[static_cast<std::size_t>(j)];
        }
        worst = std::max(worst,
                         std::abs(sum - b[static_cast<std::size_t>(i)]));
    }
    return worst;
}

struct BandShape {
    index_type n;
    index_type kl;
    index_type ku;
};

class BandedSolvers : public ::testing::TestWithParam<BandShape> {};

TEST_P(BandedSolvers, GbsvSolvesToMachinePrecision)
{
    const auto [n, kl, ku] = GetParam();
    auto a = random_banded(1, n, kl, ku, 100 + n);
    auto a_copy = a;
    Rng rng(1);
    std::vector<real_type> b(static_cast<std::size_t>(n));
    for (auto& v : b) {
        v = rng.uniform(-1.0, 1.0);
    }
    auto x = b;
    lapack::gbsv(a.entry(0), VecView<real_type>{x.data(), n});
    EXPECT_LT(banded_residual(a_copy, 0, x, b), 1e-11);
}

TEST_P(BandedSolvers, GbqrSolvesToMachinePrecision)
{
    const auto [n, kl, ku] = GetParam();
    auto a = random_banded(1, n, kl, ku, 300 + n);
    auto a_copy = a;
    Rng rng(2);
    std::vector<real_type> b(static_cast<std::size_t>(n));
    for (auto& v : b) {
        v = rng.uniform(-1.0, 1.0);
    }
    auto x = b;
    lapack::gbqr_solve(a.entry(0), VecView<real_type>{x.data(), n});
    EXPECT_LT(banded_residual(a_copy, 0, x, b), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BandedSolvers,
    ::testing::Values(BandShape{5, 1, 1}, BandShape{16, 3, 2},
                      BandShape{40, 5, 9}, BandShape{100, 12, 12},
                      BandShape{64, 0, 3}, BandShape{64, 3, 0}));

TEST(BandedLu, PivotingHandlesSmallLeadingPivot)
{
    // A matrix whose (0,0) entry is tiny forces a row swap.
    BatchBanded<real_type> a(1, 3, 1, 1);
    auto v = a.entry(0);
    v(0, 0) = 1e-18;
    v(0, 1) = 1.0;
    v(1, 0) = 1.0;
    v(1, 1) = 1.0;
    v(1, 2) = 1.0;
    v(2, 1) = 1.0;
    v(2, 2) = 2.0;
    auto a_copy = a;
    std::vector<real_type> b{1.0, 2.0, 3.0};
    auto x = b;
    lapack::gbsv(a.entry(0), VecView<real_type>{x.data(), 3});
    EXPECT_LT(banded_residual(a_copy, 0, x, b), 1e-12);
}

TEST(BandedLu, ThrowsOnSingularMatrix)
{
    BatchBanded<real_type> a(1, 2, 1, 1);
    // Column 0 entirely zero.
    a.entry(0)(0, 1) = 1.0;
    a.entry(0)(1, 1) = 1.0;
    std::vector<index_type> ipiv;
    EXPECT_THROW(lapack::gbtrf(a.entry(0), ipiv), NumericalBreakdown);
}

TEST(BandedLu, BatchedDriverSolvesEverySystem)
{
    const index_type n = 30;
    auto a = random_banded(6, n, 4, 3, 77);
    auto a_copy = a;
    BatchVector<real_type> x(6, n);
    Rng rng(5);
    std::vector<std::vector<real_type>> rhs;
    for (size_type bb = 0; bb < 6; ++bb) {
        auto xv = x.entry(bb);
        rhs.emplace_back(static_cast<std::size_t>(n));
        for (index_type i = 0; i < n; ++i) {
            rhs.back()[static_cast<std::size_t>(i)] = rng.uniform(-2.0, 2.0);
            xv[i] = rhs.back()[static_cast<std::size_t>(i)];
        }
    }
    lapack::batch_gbsv(a, x);
    for (size_type bb = 0; bb < 6; ++bb) {
        std::vector<real_type> xs(x.entry(bb).begin(), x.entry(bb).end());
        EXPECT_LT(banded_residual(a_copy, bb, xs,
                                  rhs[static_cast<std::size_t>(bb)]),
                  1e-11);
    }
}

TEST(BandedFlops, CountsArePositiveAndScaleWithBand)
{
    const double narrow = lapack::gbsv_flops(992, 1, 1);
    const double wide = lapack::gbsv_flops(992, 33, 33);
    EXPECT_GT(narrow, 0);
    EXPECT_GT(wide, 20 * narrow);
    EXPECT_GT(lapack::gbqr_flops(992, 33, 33),
              lapack::gbsv_flops(992, 33, 33));
}

TEST(DenseLu, SolveAndTransposeSolve)
{
    const index_type n = 12;
    Rng rng(9);
    std::vector<real_type> a(static_cast<std::size_t>(n) * n);
    for (index_type i = 0; i < n; ++i) {
        real_type off = 0;
        for (index_type j = 0; j < n; ++j) {
            if (i != j) {
                a[static_cast<std::size_t>(i) * n + j] =
                    rng.uniform(-1.0, 1.0);
                off += std::abs(a[static_cast<std::size_t>(i) * n + j]);
            }
        }
        a[static_cast<std::size_t>(i) * n + i] = off + 1;
    }
    auto lu = a;
    DenseView<real_type> lu_view{lu.data(), n, n};
    std::vector<index_type> ipiv;
    lapack::getrf(lu_view, ipiv);

    std::vector<real_type> b(static_cast<std::size_t>(n));
    for (auto& v : b) {
        v = rng.uniform(-1.0, 1.0);
    }
    auto x = b;
    lapack::getrs(ConstDenseView<real_type>(lu_view), ipiv,
                  VecView<real_type>{x.data(), n});
    // Residual A x - b.
    for (index_type i = 0; i < n; ++i) {
        real_type sum = 0;
        for (index_type j = 0; j < n; ++j) {
            sum += a[static_cast<std::size_t>(i) * n + j] *
                   x[static_cast<std::size_t>(j)];
        }
        EXPECT_NEAR(sum, b[static_cast<std::size_t>(i)], 1e-11);
    }
    // Transpose solve: A^T y = b.
    auto y = b;
    lapack::getrs_transpose(ConstDenseView<real_type>(lu_view), ipiv,
                            VecView<real_type>{y.data(), n});
    for (index_type j = 0; j < n; ++j) {
        real_type sum = 0;
        for (index_type i = 0; i < n; ++i) {
            sum += a[static_cast<std::size_t>(i) * n + j] *
                   y[static_cast<std::size_t>(i)];
        }
        EXPECT_NEAR(sum, b[static_cast<std::size_t>(j)], 1e-11);
    }
}

TEST(Eigen, DiagonalMatrixEigenvaluesExact)
{
    const index_type n = 5;
    std::vector<real_type> a(static_cast<std::size_t>(n) * n, 0.0);
    const real_type diag[5] = {-2.0, -0.5, 0.0, 1.5, 4.0};
    for (index_type i = 0; i < n; ++i) {
        a[static_cast<std::size_t>(i) * n + i] = diag[i];
    }
    auto eigs = eigenvalues(DenseView<real_type>{a.data(), n, n});
    ASSERT_EQ(eigs.size(), 5u);
    for (index_type i = 0; i < n; ++i) {
        EXPECT_NEAR(eigs[static_cast<std::size_t>(i)].real(), diag[i],
                    1e-12);
        EXPECT_NEAR(eigs[static_cast<std::size_t>(i)].imag(), 0.0, 1e-12);
    }
}

TEST(Eigen, RotationMatrixHasComplexPair)
{
    // 2D rotation by 90 degrees: eigenvalues +-i.
    std::vector<real_type> a{0, -1, 1, 0};
    auto eigs = eigenvalues(DenseView<real_type>{a.data(), 2, 2});
    ASSERT_EQ(eigs.size(), 2u);
    EXPECT_NEAR(eigs[0].real(), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(eigs[0].imag()), 1.0, 1e-12);
    EXPECT_NEAR(eigs[0].imag(), -eigs[1].imag(), 1e-12);
}

TEST(Eigen, TridiagonalToeplitzKnownSpectrum)
{
    // Symmetric tridiagonal (2, -1): eigenvalues 2 - 2 cos(k pi / (n+1)).
    const index_type n = 20;
    std::vector<real_type> a(static_cast<std::size_t>(n) * n, 0.0);
    for (index_type i = 0; i < n; ++i) {
        a[static_cast<std::size_t>(i) * n + i] = 2.0;
        if (i > 0) {
            a[static_cast<std::size_t>(i) * n + i - 1] = -1.0;
            a[static_cast<std::size_t>(i - 1) * n + i] = -1.0;
        }
    }
    auto eigs = eigenvalues(DenseView<real_type>{a.data(), n, n});
    ASSERT_EQ(eigs.size(), static_cast<std::size_t>(n));
    for (index_type k = 0; k < n; ++k) {
        const double expected =
            2.0 - 2.0 * std::cos((k + 1) * M_PI / (n + 1));
        EXPECT_NEAR(eigs[static_cast<std::size_t>(k)].real(), expected,
                    1e-9);
        EXPECT_NEAR(eigs[static_cast<std::size_t>(k)].imag(), 0.0, 1e-9);
    }
}

TEST(Eigen, TraceAndDeterminantInvariants)
{
    // Sum of eigenvalues == trace; product == determinant (via LU).
    const index_type n = 15;
    Rng rng(31);
    std::vector<real_type> a(static_cast<std::size_t>(n) * n);
    for (auto& v : a) {
        v = rng.uniform(-1.0, 1.0);
    }
    for (index_type i = 0; i < n; ++i) {
        a[static_cast<std::size_t>(i) * n + i] += 3.0;
    }
    real_type trace = 0;
    for (index_type i = 0; i < n; ++i) {
        trace += a[static_cast<std::size_t>(i) * n + i];
    }
    auto copy = a;
    auto eigs = eigenvalues(DenseView<real_type>{copy.data(), n, n});
    complex_type sum{};
    for (const auto& e : eigs) {
        sum += e;
    }
    EXPECT_NEAR(sum.real(), trace, 1e-8);
    EXPECT_NEAR(sum.imag(), 0.0, 1e-8);
}

TEST(Eigen, StencilMatrixSpectrumNearOne)
{
    // A backward-Euler-like stencil operator has eigenvalues near 1.
    SyntheticStencilParams params;
    params.diffusion = 0.05;
    params.advection = 0.01;
    auto csr = make_synthetic_batch(8, 7, StencilKind::nine_point, 1,
                                    params);
    auto eigs = eigenvalues(csr, 0);
    const auto summary = lapack::summarize_spectrum(eigs);
    EXPECT_GT(summary.min_real, 0.5);
    EXPECT_LT(summary.max_real, 2.0);
    EXPECT_GT(summary.clustered_fraction, 0.0);
}

TEST(Eigen, SummaryOfKnownSpectrum)
{
    std::vector<complex_type> eigs{{1.0, 0.0}, {1.02, 0.05}, {2.0, -0.3}};
    const auto s = lapack::summarize_spectrum(eigs);
    EXPECT_DOUBLE_EQ(s.min_real, 1.0);
    EXPECT_DOUBLE_EQ(s.max_real, 2.0);
    EXPECT_DOUBLE_EQ(s.max_abs_imag, 0.3);
    EXPECT_NEAR(s.clustered_fraction, 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(s.spread, std::abs(complex_type(2.0, -0.3)) / 1.0, 1e-12);
}

TEST(Condition, EstimateWithinFactorOfExactForSmallMatrix)
{
    // diag(1, 10, 100): kappa_1 = 100.
    const index_type n = 3;
    std::vector<real_type> a{1, 0, 0, 0, 10, 0, 0, 0, 100};
    const auto est =
        lapack::estimate_condition_1(ConstDenseView<real_type>{a.data(), n, n});
    EXPECT_GT(est, 50.0);
    EXPECT_LT(est, 200.0);
}

TEST(Condition, WellConditionedStencilHasLowKappa)
{
    auto csr = make_synthetic_batch(8, 7, StencilKind::nine_point, 1, {});
    auto dense = to_dense(csr);
    const auto est = lapack::estimate_condition_1(
        ConstDenseView<real_type>(dense.entry(0)));
    // The collision-like matrices are well-conditioned (Section II).
    EXPECT_LT(est, 100.0);
    EXPECT_GE(est, 1.0);
}

}  // namespace
}  // namespace bsis
