#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "blas/batch_vector.hpp"
#include "blas/kernels.hpp"
#include "util/rng.hpp"

namespace bsis {
namespace {

TEST(BatchVector, ShapeAndEntryViews)
{
    BatchVector<real_type> v(3, 5, 2.0);
    EXPECT_EQ(v.num_batch(), 3);
    EXPECT_EQ(v.len(), 5);
    EXPECT_EQ(v.size(), 15);
    auto e1 = v.entry(1);
    e1[2] = 7.0;
    EXPECT_EQ(v.entry(1)[2], 7.0);
    EXPECT_EQ(v.entry(0)[2], 2.0);  // entries are independent
    EXPECT_EQ(v.entry(2)[2], 2.0);
}

TEST(BatchVector, FillOverwritesEverything)
{
    BatchVector<real_type> v(2, 3, 1.0);
    v.fill(-4.0);
    for (size_type b = 0; b < 2; ++b) {
        for (index_type i = 0; i < 3; ++i) {
            EXPECT_EQ(v.entry(b)[i], -4.0);
        }
    }
}

TEST(BatchVector, RejectsNegativeShape)
{
    EXPECT_THROW(BatchVector<real_type>(-1, 3), BadArgument);
    EXPECT_THROW(BatchVector<real_type>(1, -3), BadArgument);
}

class KernelsTest : public ::testing::TestWithParam<index_type> {
protected:
    std::vector<real_type> random_vec(index_type n, std::uint64_t seed)
    {
        Rng rng(seed);
        std::vector<real_type> v(static_cast<std::size_t>(n));
        for (auto& x : v) {
            x = rng.uniform(-1.0, 1.0);
        }
        return v;
    }
};

TEST_P(KernelsTest, CopyAndFill)
{
    const index_type n = GetParam();
    auto a = random_vec(n, 1);
    std::vector<real_type> b(static_cast<std::size_t>(n), 0.0);
    blas::copy<real_type>({a.data(), n}, {b.data(), n});
    EXPECT_EQ(a, b);
    blas::fill<real_type>({b.data(), n}, 3.0);
    for (const auto x : b) {
        EXPECT_EQ(x, 3.0);
    }
}

TEST_P(KernelsTest, AxpyMatchesReference)
{
    const index_type n = GetParam();
    auto x = random_vec(n, 2);
    auto y = random_vec(n, 3);
    auto expected = y;
    for (index_type i = 0; i < n; ++i) {
        expected[static_cast<std::size_t>(i)] +=
            0.75 * x[static_cast<std::size_t>(i)];
    }
    blas::axpy<real_type>(0.75, {x.data(), n}, {y.data(), n});
    for (index_type i = 0; i < n; ++i) {
        EXPECT_DOUBLE_EQ(y[static_cast<std::size_t>(i)],
                         expected[static_cast<std::size_t>(i)]);
    }
}

TEST_P(KernelsTest, AxpbyMatchesReference)
{
    const index_type n = GetParam();
    auto x = random_vec(n, 4);
    auto y = random_vec(n, 5);
    auto expected = y;
    for (index_type i = 0; i < n; ++i) {
        expected[static_cast<std::size_t>(i)] =
            2.0 * x[static_cast<std::size_t>(i)] -
            0.5 * expected[static_cast<std::size_t>(i)];
    }
    blas::axpby<real_type>(2.0, {x.data(), n}, -0.5, {y.data(), n});
    for (index_type i = 0; i < n; ++i) {
        EXPECT_DOUBLE_EQ(y[static_cast<std::size_t>(i)],
                         expected[static_cast<std::size_t>(i)]);
    }
}

TEST_P(KernelsTest, DotAgainstAccumulation)
{
    const index_type n = GetParam();
    auto x = random_vec(n, 6);
    auto y = random_vec(n, 7);
    real_type expected = 0;
    for (index_type i = 0; i < n; ++i) {
        expected += x[static_cast<std::size_t>(i)] *
                    y[static_cast<std::size_t>(i)];
    }
    EXPECT_NEAR(blas::dot<real_type>({x.data(), n}, {y.data(), n}),
                expected, 1e-12 * n);
}

TEST_P(KernelsTest, Nrm2IsSqrtOfSelfDot)
{
    const index_type n = GetParam();
    auto x = random_vec(n, 8);
    const real_type d = blas::dot<real_type>({x.data(), n}, {x.data(), n});
    EXPECT_NEAR(blas::nrm2<real_type>({x.data(), n}), std::sqrt(d), 1e-13);
}

TEST_P(KernelsTest, ScalAndSub)
{
    const index_type n = GetParam();
    auto x = random_vec(n, 9);
    auto orig = x;
    blas::scal<real_type>(-2.0, {x.data(), n});
    for (index_type i = 0; i < n; ++i) {
        const auto k = static_cast<std::size_t>(i);
        EXPECT_EQ(x[k], -2.0 * orig[k]);
        EXPECT_NEAR(x[k] - orig[k], -3.0 * orig[k], 1e-14);
    }
}

TEST_P(KernelsTest, ElementwiseMul)
{
    const index_type n = GetParam();
    auto x = random_vec(n, 10);
    auto y = random_vec(n, 11);
    std::vector<real_type> z(static_cast<std::size_t>(n));
    blas::mul_elementwise<real_type>({x.data(), n}, {y.data(), n},
                                     {z.data(), n});
    for (index_type i = 0; i < n; ++i) {
        EXPECT_DOUBLE_EQ(z[static_cast<std::size_t>(i)],
                         x[static_cast<std::size_t>(i)] *
                             y[static_cast<std::size_t>(i)]);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, KernelsTest,
                         ::testing::Values<index_type>(1, 7, 32, 33, 992));

TEST(Kernels, DotOfEmptyVectorsIsZero)
{
    EXPECT_EQ(blas::dot<real_type>({nullptr, 0}, {nullptr, 0}), 0.0);
    EXPECT_EQ(blas::nrm2<real_type>({nullptr, 0}), 0.0);
}

}  // namespace
}  // namespace bsis
