#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "matrix/batch_banded.hpp"
#include "matrix/batch_csr.hpp"
#include "matrix/batch_dense.hpp"
#include "matrix/batch_ell.hpp"
#include "matrix/conversions.hpp"
#include "matrix/stats.hpp"
#include "matrix/stencil.hpp"
#include "util/rng.hpp"

namespace bsis {
namespace {

/// Dense SpMV used as the reference for every sparse format.
std::vector<real_type> dense_spmv(const BatchDense<real_type>& dense,
                                  size_type entry,
                                  const std::vector<real_type>& x)
{
    const auto a = dense.entry(entry);
    std::vector<real_type> y(static_cast<std::size_t>(a.rows), 0.0);
    for (index_type r = 0; r < a.rows; ++r) {
        for (index_type c = 0; c < a.cols; ++c) {
            y[static_cast<std::size_t>(r)] +=
                a(r, c) * x[static_cast<std::size_t>(c)];
        }
    }
    return y;
}

std::vector<real_type> random_vec(index_type n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<real_type> v(static_cast<std::size_t>(n));
    for (auto& x : v) {
        x = rng.uniform(-1.0, 1.0);
    }
    return v;
}

TEST(StencilPattern, NinePointCountsMatchPaperMatrix)
{
    // The paper's matrix: 992 rows, 9 nonzeros per interior row (Fig. 4).
    const auto p = make_stencil_pattern(32, 31, StencilKind::nine_point);
    EXPECT_EQ(p.rows(), 992);
    index_type max_nnz = 0;
    index_type min_nnz = 100;
    for (index_type r = 0; r < p.rows(); ++r) {
        const auto cnt = p.row_ptrs[r + 1] - p.row_ptrs[r];
        max_nnz = std::max(max_nnz, cnt);
        min_nnz = std::min(min_nnz, cnt);
    }
    EXPECT_EQ(max_nnz, 9);
    EXPECT_EQ(min_nnz, 4);  // corners couple to 3 neighbors + self
}

TEST(StencilPattern, FivePointInteriorHasFiveNeighbors)
{
    const auto p = make_stencil_pattern(8, 8, StencilKind::five_point);
    const index_type r = 3 * 8 + 4;  // interior node
    EXPECT_EQ(p.row_ptrs[r + 1] - p.row_ptrs[r], 5);
}

TEST(StencilPattern, ColumnsSortedWithinRows)
{
    const auto p = make_stencil_pattern(7, 5, StencilKind::nine_point);
    for (index_type r = 0; r < p.rows(); ++r) {
        for (index_type k = p.row_ptrs[r] + 1; k < p.row_ptrs[r + 1]; ++k) {
            EXPECT_LT(p.col_idxs[k - 1], p.col_idxs[k]);
        }
    }
}

TEST(StencilPattern, PatternIsStructurallySymmetric)
{
    const auto p = make_stencil_pattern(6, 9, StencilKind::nine_point);
    BatchCsr<real_type> batch(1, p.rows(), p.row_ptrs, p.col_idxs);
    EXPECT_TRUE(compute_stats(batch).pattern_symmetric);
}

TEST(StencilPattern, RejectsTinyGrids)
{
    EXPECT_THROW(make_stencil_pattern(1, 5, StencilKind::five_point),
                 BadArgument);
}

TEST(BatchCsr, ValidatesPattern)
{
    // row_ptrs wrong length
    EXPECT_THROW(BatchCsr<real_type>(1, 3, {0, 1}, {0}), DimensionMismatch);
    // non-monotone row_ptrs
    EXPECT_THROW(BatchCsr<real_type>(1, 2, {0, 2, 1}, {0, 1}),
                 DimensionMismatch);
    // col_idxs size mismatch
    EXPECT_THROW(BatchCsr<real_type>(1, 2, {0, 1, 2}, {0, 1, 1}),
                 DimensionMismatch);
}

TEST(BatchCsr, SharedPatternIndependentValues)
{
    BatchCsr<real_type> batch(2, 2, {0, 1, 2}, {0, 1});
    batch.values(0)[0] = 1.0;
    batch.values(1)[0] = 5.0;
    EXPECT_EQ(batch.entry(0).values[0], 1.0);
    EXPECT_EQ(batch.entry(1).values[0], 5.0);
    EXPECT_EQ(batch.entry(0).row_ptrs, batch.entry(1).row_ptrs);
}

TEST(BatchEll, ValidatesColumnIndices)
{
    EXPECT_THROW(BatchEll<real_type>(1, 2, 1, {0, 5}), DimensionMismatch);
    EXPECT_THROW(BatchEll<real_type>(1, 2, 2, {0, 1}), DimensionMismatch);
    EXPECT_NO_THROW(BatchEll<real_type>(1, 2, 1, {0, ell_padding}));
}

class FormatEquivalence : public ::testing::TestWithParam<size_type> {};

TEST_P(FormatEquivalence, SpmvAgreesAcrossAllFormats)
{
    const size_type nbatch = GetParam();
    SyntheticStencilParams params;
    params.seed = 99;
    auto csr = make_synthetic_batch(9, 7, StencilKind::nine_point, nbatch,
                                    params);
    auto ell = to_ell(csr);
    auto dense = to_dense(csr);
    auto banded = to_banded(csr);
    const auto x = random_vec(csr.rows(), 5);

    for (size_type b = 0; b < nbatch; ++b) {
        const auto expected = dense_spmv(dense, b, x);
        std::vector<real_type> y(static_cast<std::size_t>(csr.rows()));
        const ConstVecView<real_type> xv{x.data(), csr.rows()};
        const VecView<real_type> yv{y.data(), csr.rows()};

        spmv(csr.entry(b), xv, yv);
        for (index_type i = 0; i < csr.rows(); ++i) {
            ASSERT_NEAR(y[static_cast<std::size_t>(i)],
                        expected[static_cast<std::size_t>(i)], 1e-13)
                << "csr batch " << b;
        }
        spmv(ell.entry(b), xv, yv);
        for (index_type i = 0; i < csr.rows(); ++i) {
            ASSERT_NEAR(y[static_cast<std::size_t>(i)],
                        expected[static_cast<std::size_t>(i)], 1e-13)
                << "ell batch " << b;
        }
        spmv(banded.entry(b), xv, yv);
        for (index_type i = 0; i < csr.rows(); ++i) {
            ASSERT_NEAR(y[static_cast<std::size_t>(i)],
                        expected[static_cast<std::size_t>(i)], 1e-13)
                << "banded batch " << b;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, FormatEquivalence,
                         ::testing::Values<size_type>(1, 3, 8));

TEST(Conversions, CsrEllRoundTripPreservesValues)
{
    auto csr = make_synthetic_batch(6, 5, StencilKind::nine_point, 4, {});
    auto ell = to_ell(csr);
    auto back = to_csr(ell);
    ASSERT_EQ(back.nnz_per_entry(), csr.nnz_per_entry());
    for (size_type b = 0; b < csr.num_batch(); ++b) {
        for (index_type k = 0; k < csr.nnz_per_entry(); ++k) {
            ASSERT_EQ(back.values(b)[k], csr.values(b)[k]);
        }
    }
    EXPECT_EQ(back.row_ptrs(), csr.row_ptrs());
    EXPECT_EQ(back.col_idxs(), csr.col_idxs());
}

TEST(Conversions, EllPaddingSlotsAreMarked)
{
    auto csr = make_synthetic_batch(5, 4, StencilKind::nine_point, 1, {});
    auto ell = to_ell(csr);
    EXPECT_EQ(ell.nnz_per_row(), 9);
    // Corner row 0 has 4 nonzeros -> 5 padded slots.
    const auto ev = ell.entry(0);
    int pad = 0;
    for (index_type k = 0; k < ell.nnz_per_row(); ++k) {
        if (ell.col_idxs()[ev.at(0, k)] == ell_padding) {
            ++pad;
            EXPECT_EQ(ev.values[ev.at(0, k)], 0.0);
        }
    }
    EXPECT_EQ(pad, 5);
}

TEST(Conversions, EllRequestedWidthMustFit)
{
    auto csr = make_synthetic_batch(5, 4, StencilKind::nine_point, 1, {});
    EXPECT_THROW(to_ell(csr, 5), DimensionMismatch);
    EXPECT_NO_THROW(to_ell(csr, 12));
}

TEST(Conversions, BandwidthsOfNinePointStencil)
{
    auto csr = make_synthetic_batch(12, 6, StencilKind::nine_point, 1, {});
    const auto [kl, ku] = bandwidths(csr);
    EXPECT_EQ(kl, 13);  // nx + 1
    EXPECT_EQ(ku, 13);
}

TEST(Conversions, BandedRejectsTooNarrowBand)
{
    auto csr = make_synthetic_batch(8, 4, StencilKind::nine_point, 1, {});
    EXPECT_THROW(to_banded(csr, 2, 2), DimensionMismatch);
}

TEST(BatchBanded, LayoutAccessorRoundTrip)
{
    BatchBanded<real_type> banded(1, 6, 2, 1);
    auto v = banded.entry(0);
    v(3, 2) = 42.0;
    v(0, 1) = -1.0;
    EXPECT_EQ(v(3, 2), 42.0);
    EXPECT_EQ(v(0, 1), -1.0);
    EXPECT_TRUE(v.in_band(3, 2));
    EXPECT_FALSE(v.in_band(0, 5));
    EXPECT_EQ(v.ldab(), 2 * 2 + 1 + 1);
}

TEST(Stats, SyntheticBatchIsDiagonallyDominantNonsymmetric)
{
    SyntheticStencilParams params;
    params.advection = 0.05;
    auto csr = make_synthetic_batch(8, 8, StencilKind::nine_point, 2,
                                    params);
    const auto stats = compute_stats(csr);
    EXPECT_EQ(stats.rows, 64);
    EXPECT_TRUE(stats.pattern_symmetric);
    EXPECT_FALSE(stats.numerically_symmetric);
    EXPECT_GT(stats.diagonal_dominance, 1.0);
    EXPECT_EQ(stats.max_nnz_per_row, 9);
}

TEST(Stats, DetectsNumericalSymmetry)
{
    // Pure diffusion with zero perturbation/advection is symmetric.
    SyntheticStencilParams params;
    params.advection = 0.0;
    params.perturbation = 0.0;
    auto csr = make_synthetic_batch(6, 6, StencilKind::five_point, 1,
                                    params);
    EXPECT_TRUE(compute_stats(csr).numerically_symmetric);
}

TEST(Stats, StorageCostMatchesPaperFormulas)
{
    // Fig. 3 formulas with value = 8 bytes, index = 4 bytes.
    const auto cost = storage_cost(992, 8760, 9, 100);
    EXPECT_EQ(cost.dense_bytes, size_type{100} * 992 * 992 * 8);
    EXPECT_EQ(cost.csr_bytes,
              size_type{100} * 8760 * 8 + 993 * 4 + size_type{8760} * 4);
    EXPECT_EQ(cost.ell_bytes,
              size_type{100} * 9 * 992 * 8 + size_type{9} * 992 * 4);
}

TEST(Stats, StorageBytesAccessorsAgreeWithModel)
{
    auto csr = make_synthetic_batch(6, 5, StencilKind::nine_point, 7, {});
    auto ell = to_ell(csr);
    const auto stats = compute_stats(csr);
    const auto cost =
        storage_cost(stats.rows, stats.nnz, stats.max_nnz_per_row, 7);
    EXPECT_EQ(csr.storage_bytes(), cost.csr_bytes);
    EXPECT_EQ(ell.storage_bytes(), cost.ell_bytes);
}

TEST(Stats, SparseFormatsBeatDenseAndCrossOverEachOther)
{
    // Fig. 3: both sparse formats are far below dense at every batch
    // size. Between themselves, ELL wins for small batches (no row-
    // pointer array) while CSR's slightly smaller per-entry value storage
    // (no padding values) wins once the batch is large.
    // Real 32 x 31 nine-point pattern: 8554 stored nonzeros.
    const auto p = make_stencil_pattern(32, 31, StencilKind::nine_point);
    const index_type nnz = p.row_ptrs[p.rows()];
    EXPECT_EQ(nnz, 8554);
    for (size_type nb : {size_type{1}, size_type{10}, size_type{1000}}) {
        const auto cost = storage_cost(992, nnz, 9, nb);
        EXPECT_LT(cost.ell_bytes, cost.dense_bytes / 50);
        EXPECT_LT(cost.csr_bytes, cost.dense_bytes / 50);
    }
    // At batch size 1 the two sparse formats are within a few percent of
    // each other; at large batches CSR's unpadded values win slightly.
    const auto one = storage_cost(992, nnz, 9, 1);
    EXPECT_NEAR(static_cast<double>(one.ell_bytes),
                static_cast<double>(one.csr_bytes),
                0.05 * static_cast<double>(one.csr_bytes));
    const auto many = storage_cost(992, nnz, 9, 1000);
    EXPECT_GT(many.ell_bytes, many.csr_bytes);
}

TEST(ExtractDiagonal, CsrAndEllAgree)
{
    auto csr = make_synthetic_batch(7, 6, StencilKind::nine_point, 3, {});
    auto ell = to_ell(csr);
    std::vector<real_type> d1(static_cast<std::size_t>(csr.rows()));
    std::vector<real_type> d2(static_cast<std::size_t>(csr.rows()));
    for (size_type b = 0; b < 3; ++b) {
        extract_diagonal(csr.entry(b),
                         VecView<real_type>{d1.data(), csr.rows()});
        extract_diagonal(ell.entry(b),
                         VecView<real_type>{d2.data(), csr.rows()});
        EXPECT_EQ(d1, d2);
        for (const auto v : d1) {
            EXPECT_GT(v, 0.0);  // diagonally dominant generator
        }
    }
}

TEST(BatchSellp, SpmvMatchesCsrOnIrregularPattern)
{
    // A pattern with one long row: SELL-P pads only that row's slice.
    const index_type n = 70;
    std::vector<index_type> row_ptrs(static_cast<std::size_t>(n) + 1, 0);
    std::vector<index_type> col_idxs;
    for (index_type r = 0; r < n; ++r) {
        if (r == 5) {
            for (index_type c = 0; c < 40; ++c) {
                col_idxs.push_back(c);
            }
        } else {
            col_idxs.push_back(r);
            if (r + 1 < n) {
                col_idxs.push_back(r + 1);
            }
        }
        row_ptrs[static_cast<std::size_t>(r) + 1] =
            static_cast<index_type>(col_idxs.size());
    }
    BatchCsr<real_type> csr(2, n, row_ptrs, col_idxs);
    Rng rng(77);
    for (size_type b = 0; b < 2; ++b) {
        for (index_type k = 0; k < csr.nnz_per_entry(); ++k) {
            csr.values(b)[k] = rng.uniform(-1.0, 1.0);
        }
    }
    auto sellp = to_sellp(csr, 32);
    const auto x = random_vec(n, 9);
    for (size_type b = 0; b < 2; ++b) {
        std::vector<real_type> y_csr(static_cast<std::size_t>(n));
        std::vector<real_type> y_sellp(static_cast<std::size_t>(n));
        spmv(csr.entry(b), ConstVecView<real_type>{x.data(), n},
             VecView<real_type>{y_csr.data(), n});
        spmv(sellp.entry(b), ConstVecView<real_type>{x.data(), n},
             VecView<real_type>{y_sellp.data(), n});
        for (index_type i = 0; i < n; ++i) {
            ASSERT_NEAR(y_sellp[static_cast<std::size_t>(i)],
                        y_csr[static_cast<std::size_t>(i)], 1e-13);
        }
    }
    // The long row only inflates its own slice: slice 0 width 40, the
    // others 2.
    EXPECT_EQ(sellp.slice_sets()[1] - sellp.slice_sets()[0], 40);
    EXPECT_EQ(sellp.slice_sets()[2] - sellp.slice_sets()[1], 2);
}

TEST(BatchSellp, DegeneratesToEllForUniformStencils)
{
    auto csr = make_synthetic_batch(8, 8, StencilKind::nine_point, 2, {});
    auto ell = to_ell(csr);
    auto sellp = to_sellp(csr, 64);  // one slice covers the whole matrix
    EXPECT_EQ(sellp.stored_per_entry(), ell.stored_per_entry());
    const auto x = random_vec(csr.rows(), 21);
    std::vector<real_type> y1(static_cast<std::size_t>(csr.rows()));
    std::vector<real_type> y2(static_cast<std::size_t>(csr.rows()));
    spmv(ell.entry(1), ConstVecView<real_type>{x.data(), csr.rows()},
         VecView<real_type>{y1.data(), csr.rows()});
    spmv(sellp.entry(1), ConstVecView<real_type>{x.data(), csr.rows()},
         VecView<real_type>{y2.data(), csr.rows()});
    for (index_type i = 0; i < csr.rows(); ++i) {
        ASSERT_NEAR(y1[static_cast<std::size_t>(i)],
                    y2[static_cast<std::size_t>(i)], 1e-13);
    }
}

TEST(BatchSellp, SlicedPaddingBeatsEllOnSkewedRows)
{
    // With one dense row, ELL pads EVERY row to 40; SELL-P only one slice.
    const index_type n = 256;
    std::vector<index_type> row_ptrs(static_cast<std::size_t>(n) + 1, 0);
    std::vector<index_type> col_idxs;
    for (index_type r = 0; r < n; ++r) {
        if (r == 0) {
            for (index_type c = 0; c < 40; ++c) {
                col_idxs.push_back(c);
            }
        } else {
            col_idxs.push_back(r);
        }
        row_ptrs[static_cast<std::size_t>(r) + 1] =
            static_cast<index_type>(col_idxs.size());
    }
    BatchCsr<real_type> csr(4, n, row_ptrs, col_idxs);
    auto ell = to_ell(csr);
    auto sellp = to_sellp(csr, 32);
    EXPECT_LT(sellp.storage_bytes(), ell.storage_bytes() / 4);
}

TEST(BatchSellp, ExtractDiagonalMatchesCsr)
{
    auto csr = make_synthetic_batch(9, 7, StencilKind::nine_point, 2, {});
    auto sellp = to_sellp(csr, 16);
    std::vector<real_type> d1(static_cast<std::size_t>(csr.rows()));
    std::vector<real_type> d2(static_cast<std::size_t>(csr.rows()));
    extract_diagonal(csr.entry(1),
                     VecView<real_type>{d1.data(), csr.rows()});
    extract_diagonal(sellp.entry(1),
                     VecView<real_type>{d2.data(), csr.rows()});
    EXPECT_EQ(d1, d2);
}

TEST(BatchSellp, ValidatesShape)
{
    EXPECT_THROW(BatchSellp<real_type>(1, 4, 2, {0, 1}, {0, 0}),
                 DimensionMismatch);  // slice_sets too short
    EXPECT_THROW(BatchSellp<real_type>(1, 4, 2, {0, 1, 1}, {0}),
                 DimensionMismatch);  // col_idxs size mismatch
    EXPECT_THROW(BatchSellp<real_type>(1, 4, 0, {0, 1, 1}, {0, 0}),
                 BadArgument);  // zero slice size
}

TEST(BatchDense, StorageAndSpmv)
{
    BatchDense<real_type> dense(2, 3, 3);
    EXPECT_EQ(dense.storage_bytes(), 2 * 3 * 3 * 8);
    auto d = dense.entry(1);
    d(0, 0) = 2.0;
    d(1, 2) = -1.0;
    std::vector<real_type> x{1, 2, 3};
    std::vector<real_type> y(3);
    spmv(ConstDenseView<real_type>(d), ConstVecView<real_type>{x.data(), 3},
         VecView<real_type>{y.data(), 3});
    EXPECT_EQ(y[0], 2.0);
    EXPECT_EQ(y[1], -3.0);
    EXPECT_EQ(y[2], 0.0);
}

}  // namespace
}  // namespace bsis
