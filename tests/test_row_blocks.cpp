// Tests for the width-1 path's row-block SpMV (matrix/row_blocks.hpp): the
// x86-64-v4 kernels against each format's own spmv on hostile input, whole
// width-1 BiCGStab and CG solves with and without them, and concurrent
// solves of batches whose patterns differ. The kernel and whole-solve
// tests skip without the wide copy or on a CPU without x86-64-v4.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "core/bicgstab.hpp"
#include "core/cg.hpp"
#include "core/forensics.hpp"
#include "core/lockstep_run.hpp"
#include "core/precond.hpp"
#include "core/solver.hpp"
#include "core/stop.hpp"
#include "matrix/conversions.hpp"
#include "matrix/row_blocks.hpp"
#include "matrix/stencil.hpp"
#include "util/rng.hpp"

namespace bsis {
namespace {

bool same_bits(real_type a, real_type b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Whether this build has the row-block kernels and this CPU runs them.
bool wide_kernels_run()
{
#ifdef BSIS_WIDE_LANES
    return lockstep_isa() == IsaLevel::x86_64_v4;
#else
    return false;
#endif
}

/// A 25-row CSR batch (three blocks of 8 and a one-row tail): row lengths
/// 0 to 9, so most rows are shorter than their block's slot count and row
/// 0 is empty; row 3 repeats its diagonal; column 0 appears in many rows.
/// Values include exact zeros and -0.0.
BatchCsr<real_type> hostile_csr()
{
    constexpr index_type rows = 25;
    Rng rng(2718);
    std::vector<index_type> ptrs{0};
    std::vector<index_type> cols;
    for (index_type r = 0; r < rows; ++r) {
        const index_type len = (r * 3) % 10;
        for (index_type k = 0; k < len; ++k) {
            if (k == 0 || (r == 3 && k == 2)) {
                cols.push_back(r);
            } else if (k % 3 == 1) {
                cols.push_back(0);
            } else {
                cols.push_back(static_cast<index_type>(
                    rng.uniform(0.0, static_cast<double>(rows) - 0.5)));
            }
        }
        ptrs.push_back(static_cast<index_type>(cols.size()));
    }
    BatchCsr<real_type> a(3, rows, std::move(ptrs), std::move(cols));
    for (size_type e = 0; e < a.num_batch(); ++e) {
        real_type* v = a.values(e);
        for (index_type q = 0; q < a.nnz_per_entry(); ++q) {
            v[q] = q % 11 == 5   ? 0.0
                   : q % 13 == 7 ? -0.0
                                 : rng.uniform(-2.0, 2.0);
        }
    }
    return a;
}

/// Right-hand vectors for the hostile batch: finite, -0.0, +-inf and two
/// NaN payloads, each at column 0 in one of them.
std::vector<std::vector<real_type>> hostile_xs(index_type rows)
{
    const real_type inf = std::numeric_limits<real_type>::infinity();
    const real_type nan_a = std::numeric_limits<real_type>::quiet_NaN();
    const real_type nan_b =
        std::bit_cast<real_type>(std::uint64_t{0xfff8000000000123});
    Rng rng(31415);
    std::vector<std::vector<real_type>> xs;
    for (int v = 0; v < 5; ++v) {
        std::vector<real_type> x(static_cast<std::size_t>(rows));
        for (auto& xi : x) {
            xi = rng.uniform(-1.0, 1.0);
        }
        xs.push_back(x);
    }
    xs[0][0] = -0.0;
    xs[0][4] = -0.0;
    xs[1][0] = inf;
    xs[1][9] = -inf;
    xs[2][0] = -inf;
    xs[2][3] = nan_a;
    xs[3][0] = nan_a;
    xs[3][12] = nan_b;
    xs[3][17] = inf;
    xs[4][0] = nan_b;
    xs[4][20] = -inf;
    xs[4][24] = -0.0;
    return xs;
}

/// Runs the row-block kernels on every entry of `a` and every x, and
/// compares y bit for bit with the format's own spmv; the eight doubles
/// after y must keep their canary. A packed pattern is checked at set-up
/// (pack and product in one pass) and again on the packed strip.
template <typename BatchMatrix>
void expect_kernel_matches(const BatchMatrix& a, bool packed)
{
    const index_type n = a.rows();
    const auto p = make_row_block_pattern(a);
    ASSERT_EQ(p.packed(), packed);
    ASSERT_EQ(p.blocks(), (n + 7) / 8);
    const real_type canary = -7.25e77;
    std::vector<real_type> strip_storage(
        static_cast<std::size_t>(p.strip_length()) + 8);
    real_type* strip = row_block_strip(strip_storage.data());
    for (size_type e = 0; e < a.num_batch(); ++e) {
        const auto av = a.entry(e);
        for (const auto& x : hostile_xs(n)) {
            std::vector<real_type> ref(static_cast<std::size_t>(n));
            spmv(av, ConstVecView<real_type>{x.data(), n},
                 VecView<real_type>{ref.data(), n});
            for (const bool setup : {true, false}) {
                if (!packed && !setup) {
                    continue;
                }
                std::vector<real_type> y(static_cast<std::size_t>(n) + 8,
                                         canary);
#ifdef BSIS_WIDE_LANES
                if (!packed) {
                    spmv_row_blocks(p, av.values, x.data(), y.data());
                } else if (setup) {
                    pack_spmv_row_blocks(p, av.values, strip, x.data(),
                                         y.data());
                } else {
                    spmv_row_blocks(p, strip, x.data(), y.data());
                }
#endif
                for (index_type r = 0; r < n; ++r) {
                    EXPECT_TRUE(same_bits(y[static_cast<std::size_t>(r)],
                                          ref[static_cast<std::size_t>(r)]))
                        << "entry " << e << " row " << r << ": "
                        << y[static_cast<std::size_t>(r)] << " vs "
                        << ref[static_cast<std::size_t>(r)]
                        << (setup ? " (set-up)" : " (strip)");
                }
                for (std::size_t t = static_cast<std::size_t>(n);
                     t < y.size(); ++t) {
                    EXPECT_TRUE(same_bits(y[t], canary)) << "past y at " << t;
                }
            }
        }
    }
}

TEST(RowBlockSpmv, WideKernelMatchesEachFormatBitForBit)
{
    if (!wide_kernels_run()) {
        GTEST_SKIP() << "the x86-64-v4 row-block kernels do not run here";
    }
    const auto csr = hostile_csr();
    {
        SCOPED_TRACE("csr");
        expect_kernel_matches(csr, true);
    }
    {
        SCOPED_TRACE("ell");
        expect_kernel_matches(to_ell(csr), false);
    }
    {
        SCOPED_TRACE("sellp 8");
        expect_kernel_matches(to_sellp(csr, 8), false);
    }
    {
        SCOPED_TRACE("sellp 12");
        expect_kernel_matches(to_sellp(csr, 12), true);
    }
}

/// One width-1 run's outcome on a batch.
struct Outcome {
    BatchLog log;
    BatchVector<real_type> x;
    obs::ConvergenceHistory history;
};

/// Solves every entry of `a` with the width-1 BiCGStab or CG kernel of
/// `s`, as solve_batch's scalar path does, on the row blocks (`Wide`) or
/// the format's own SpMV, from the initial guess `guess`.
template <bool Wide, typename Prec, typename BatchMatrix, typename Stop>
Outcome run_width1(const BatchMatrix& a, const BatchVector<real_type>& b,
                   const BatchVector<real_type>& guess,
                   const SolverSettings& s, const Stop& stop)
{
    const index_type n = a.rows();
    Outcome out{BatchLog(a.num_batch()), guess, {}};
    out.history.reset(a.num_batch(), 4);
    const auto blocks = make_row_block_pattern(a);
    const int prec_vecs = precond_work_vectors(s.precond, 4);
    const int vectors =
        (s.solver == SolverType::cg ? cg_work_vectors
                                    : bicgstab_work_vectors) +
        prec_vecs;
    const int strip_slots = (blocks.strip_length() + n - 1) / n;
    Workspace ws(n, vectors + strip_slots);
    for (size_type i = 0; i < a.num_batch(); ++i) {
        const auto av = a.entry(i);
        Prec prec = [] {
            if constexpr (std::is_same_v<Prec, BlockJacobiPrec>) {
                return BlockJacobiPrec(4);
            } else {
                return Prec{};
            }
        }();
        prec.generate(av, prec_vecs == 0
                              ? VecView<real_type>{}
                              : VecView<real_type>{
                                    ws.slot(vectors - prec_vecs).data,
                                    n * prec_vecs});
        RowBlockEntry e;
        if (Wide) {
            e = {&blocks, av.values,
                 blocks.packed() ? row_block_strip(ws.slot(vectors).data)
                                 : nullptr};
        }
        const obs::HistorySink sink{&out.history, i};
        const int max_it = s.max_iterations;
        EntryResult r;
        if (s.solver == SolverType::cg) {
            r = s.pipelined ? cg_kernel<true>(av, b.entry(i), out.x.entry(i),
                                              prec, stop, max_it, ws, 0, sink,
                                              e)
                            : cg_kernel(av, b.entry(i), out.x.entry(i), prec,
                                        stop, max_it, ws, 0, sink, e);
        } else {
            r = s.pipelined
                    ? bicgstab_kernel<true>(av, b.entry(i), out.x.entry(i),
                                            prec, stop, max_it, ws, 0, sink,
                                            e)
                    : bicgstab_kernel(av, b.entry(i), out.x.entry(i), prec,
                                      stop, max_it, ws, 0, sink, e);
        }
        out.log.record(i, r.iterations, r.residual_norm, r.converged,
                       r.failure);
        out.history.finalize(i, r.iterations, r.residual_norm, r.converged);
    }
    return out;
}

void expect_same_outcome(const Outcome& base, const Outcome& wide,
                         index_type n)
{
    for (size_type i = 0; i < base.log.num_batch(); ++i) {
        SCOPED_TRACE(testing::Message() << "system " << i);
        EXPECT_EQ(base.log.converged(i), wide.log.converged(i));
        EXPECT_EQ(base.log.iterations(i), wide.log.iterations(i));
        EXPECT_TRUE(same_bits(base.log.residual_norm(i),
                              wide.log.residual_norm(i)));
        EXPECT_EQ(base.log.failure(i), wide.log.failure(i));
        for (index_type k = 0; k < n; ++k) {
            EXPECT_TRUE(same_bits(base.x.entry(i)[k], wide.x.entry(i)[k]))
                << "row " << k;
        }
        const auto& hb = base.history.points(i);
        const auto& hw = wide.history.points(i);
        ASSERT_EQ(hb.size(), hw.size());
        for (std::size_t k = 0; k < hb.size(); ++k) {
            EXPECT_EQ(hb[k].iteration, hw[k].iteration);
            EXPECT_TRUE(same_bits(hb[k].residual, hw[k].residual));
        }
        EXPECT_EQ(base.history.final_point(i).iteration,
                  wide.history.final_point(i).iteration);
        EXPECT_TRUE(same_bits(base.history.final_point(i).residual,
                              wide.history.final_point(i).residual));
    }
}

/// A batch of 13 systems on a 9 x 7 grid (63 rows: a ragged last block),
/// symmetric positive definite for CG; system 2 has a NaN right-hand side,
/// system 5 a zero one.
struct Problem {
    BatchCsr<real_type> a;
    BatchVector<real_type> b;
    BatchVector<real_type> guess;
};

Problem make_problem(bool spd)
{
    SyntheticStencilParams params;
    params.seed = 1234;
    if (spd) {
        params.advection = 0.0;
        params.perturbation = 0.0;
    }
    Problem p{make_synthetic_batch(9, 7, StencilKind::nine_point, 13, params),
              BatchVector<real_type>(13, 63), BatchVector<real_type>(13, 63)};
    Rng rng(55);
    for (size_type i = 0; i < 13; ++i) {
        for (index_type k = 0; k < 63; ++k) {
            p.b.entry(i)[k] = i == 2   ? std::nan("")
                              : i == 5 ? 0.0
                                       : rng.uniform(-1.0, 1.0);
            p.guess.entry(i)[k] = rng.uniform(-0.5, 0.5);
        }
    }
    return p;
}

template <typename Prec, typename BatchMatrix>
void expect_width1_copies_match(const BatchMatrix& a, const Problem& p,
                                const SolverSettings& s)
{
    const BatchVector<real_type> zero(a.num_batch(), a.rows());
    for (const bool warm : {false, true}) {
        SCOPED_TRACE(warm ? "warm guess" : "zero guess");
        const auto& guess = warm ? p.guess : zero;
        for (const bool rel : {false, true}) {
            SCOPED_TRACE(rel ? "rel stop" : "abs stop");
            if (rel) {
                const RelResidualStop stop{1e-8};
                expect_same_outcome(
                    run_width1<false, Prec>(a, p.b, guess, s, stop),
                    run_width1<true, Prec>(a, p.b, guess, s, stop), a.rows());
            } else {
                const AbsResidualStop stop{1e-10};
                expect_same_outcome(
                    run_width1<false, Prec>(a, p.b, guess, s, stop),
                    run_width1<true, Prec>(a, p.b, guess, s, stop), a.rows());
            }
        }
    }
}

TEST(RowBlockSpmv, WidthOneSolvesMatchTheFormatKernelsBitForBit)
{
    if (!wide_kernels_run()) {
        GTEST_SKIP() << "the x86-64-v4 row-block kernels do not run here";
    }
    for (const bool cg : {false, true}) {
        const auto p = make_problem(/*spd=*/cg);
        const auto ell = to_ell(p.a);
        const auto sellp16 = to_sellp(p.a, 16);
        const auto sellp12 = to_sellp(p.a, 12);
        for (const auto precond : {PrecondType::identity, PrecondType::jacobi,
                                   PrecondType::block_jacobi}) {
            for (const bool pipelined : {false, true}) {
                SolverSettings s;
                s.solver = cg ? SolverType::cg : SolverType::bicgstab;
                s.precond = precond;
                s.pipelined = pipelined;
                s.max_iterations = 300;
                SCOPED_TRACE(testing::Message()
                             << (cg ? "cg " : "bicgstab ")
                             << precond_name(precond)
                             << (pipelined ? " pipelined" : " classic"));
                const auto check = [&](const auto& a) {
                    switch (precond) {
                    case PrecondType::identity:
                        expect_width1_copies_match<IdentityPrec>(a, p, s);
                        break;
                    case PrecondType::jacobi:
                        expect_width1_copies_match<JacobiPrec>(a, p, s);
                        break;
                    case PrecondType::block_jacobi:
                        expect_width1_copies_match<BlockJacobiPrec>(a, p, s);
                        break;
                    }
                };
                check(p.a);
                check(ell);
                check(sellp16);
                check(sellp12);
            }
        }
    }
}

/// Two threads solve batches with different patterns (a 9 x 7 and a 7 x 9
/// grid: the same rows and nonzero count) at width 0 at the same time; each
/// result must equal its solo run bit for bit, so neither solve can have
/// run on the other's row blocks.
TEST(RowBlockSpmv, ConcurrentSolvesWithDifferentPatternsMatchTheirSoloRuns)
{
    SyntheticStencilParams params;
    params.seed = 77;
    const auto a = make_synthetic_batch(9, 7, StencilKind::nine_point, 24,
                                        params);
    const auto c = make_synthetic_batch(7, 9, StencilKind::nine_point, 24,
                                        params);
    ASSERT_EQ(a.rows(), c.rows());
    ASSERT_EQ(a.nnz_per_entry(), c.nnz_per_entry());
    ASSERT_NE(a.col_idxs(), c.col_idxs());
    BatchVector<real_type> b(24, a.rows());
    Rng rng(9);
    for (size_type i = 0; i < 24; ++i) {
        for (auto& v : b.entry(i)) {
            v = rng.uniform(-1.0, 1.0);
        }
    }
    SolverSettings s;
    const auto solve = [&](const auto& m) {
        BatchVector<real_type> x(m.num_batch(), m.rows());
        solve_batch(m, b, x, s);
        return x;
    };
    const auto check = [&](const auto& m, const auto& n) {
        const auto solo_m = solve(m);
        const auto solo_n = solve(n);
        std::vector<BatchVector<real_type>> out_m;
        std::vector<BatchVector<real_type>> out_n;
        std::thread tm([&] {
            for (int rep = 0; rep < 3; ++rep) {
                out_m.push_back(solve(m));
            }
        });
        std::thread tn([&] {
            for (int rep = 0; rep < 3; ++rep) {
                out_n.push_back(solve(n));
            }
        });
        tm.join();
        tn.join();
        const auto same = [](const BatchVector<real_type>& u,
                             const BatchVector<real_type>& v) {
            for (size_type i = 0; i < u.num_batch(); ++i) {
                for (index_type k = 0; k < u.len(); ++k) {
                    if (!same_bits(u.entry(i)[k], v.entry(i)[k])) {
                        return false;
                    }
                }
            }
            return true;
        };
        for (int rep = 0; rep < 3; ++rep) {
            EXPECT_TRUE(same(out_m[static_cast<std::size_t>(rep)], solo_m))
                << "first batch, repetition " << rep;
            EXPECT_TRUE(same(out_n[static_cast<std::size_t>(rep)], solo_n))
                << "second batch, repetition " << rep;
        }
    };
    {
        SCOPED_TRACE("csr");
        check(a, c);
    }
    {
        SCOPED_TRACE("ell");
        check(to_ell(a), to_ell(c));
    }
}

}  // namespace
}  // namespace bsis
