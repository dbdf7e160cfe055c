#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "lapack/eigen.hpp"
#include "matrix/stats.hpp"
#include "xgc/collision_operator.hpp"
#include "xgc/distribution.hpp"
#include "xgc/grid.hpp"
#include "xgc/picard.hpp"
#include "xgc/species.hpp"
#include "xgc/workload.hpp"

namespace bsis::xgc {
namespace {

TEST(Grid, PaperGridHas992Rows)
{
    const VelocityGrid grid(32, 31);
    EXPECT_EQ(grid.rows(), 992);
    EXPECT_EQ(grid.n_vpar(), 32);
    EXPECT_EQ(grid.n_vperp(), 31);
}

TEST(Grid, CellCentersAndFaces)
{
    const VelocityGrid grid(8, 4, 4.0, 2.0);
    EXPECT_DOUBLE_EQ(grid.dvpar(), 1.0);
    EXPECT_DOUBLE_EQ(grid.dvperp(), 0.5);
    EXPECT_DOUBLE_EQ(grid.vpar(0), -3.5);
    EXPECT_DOUBLE_EQ(grid.vpar(7), 3.5);
    EXPECT_DOUBLE_EQ(grid.vperp(0), 0.25);
    EXPECT_DOUBLE_EQ(grid.vperp_face(0), 0.0);  // axis: zero metric
    EXPECT_DOUBLE_EQ(grid.vperp_face(4), 2.0);
    EXPECT_EQ(grid.row(3, 2), 2 * 8 + 3);
}

TEST(Grid, RejectsBadShapes)
{
    EXPECT_THROW(VelocityGrid(2, 31), BadArgument);
    EXPECT_THROW(VelocityGrid(32, 31, -1.0), BadArgument);
}

TEST(Distribution, MaxwellianMomentsRoundTrip)
{
    const VelocityGrid grid(48, 48, 7.0, 7.0);
    PlasmaState state;
    state.density = 2.5;
    state.u_par = 0.3;
    state.temperature = 1.2;
    std::vector<real_type> f(static_cast<std::size_t>(grid.rows()));
    maxwellian(grid, state, VecView<real_type>{f.data(), grid.rows()});
    const auto m =
        moments(grid, ConstVecView<real_type>{f.data(), grid.rows()});
    EXPECT_NEAR(m.density, state.density, 0.01 * state.density);
    EXPECT_NEAR(m.u_par, state.u_par, 0.01);
    EXPECT_NEAR(m.temperature, state.temperature, 0.02);
}

TEST(Distribution, ConservedQuantitiesOfMaxwellian)
{
    const VelocityGrid grid(48, 48, 7.0, 7.0);
    PlasmaState state;
    state.density = 1.0;
    state.temperature = 1.0;
    std::vector<real_type> f(static_cast<std::size_t>(grid.rows()));
    maxwellian(grid, state, VecView<real_type>{f.data(), grid.rows()});
    const auto q =
        conserved(grid, ConstVecView<real_type>{f.data(), grid.rows()});
    EXPECT_NEAR(q.density, 1.0, 0.01);
    EXPECT_NEAR(q.momentum, 0.0, 1e-10);  // symmetric grid, zero flow
    EXPECT_NEAR(q.energy, 1.5, 0.05);     // (3/2) n T
}

TEST(Distribution, MomentFixRestoresInvariantsExactly)
{
    const VelocityGrid grid(32, 31);
    PlasmaState state;
    std::vector<real_type> f(static_cast<std::size_t>(grid.rows()));
    maxwellian(grid, state, VecView<real_type>{f.data(), grid.rows()});
    const auto target =
        conserved(grid, ConstVecView<real_type>{f.data(), grid.rows()});
    // Perturb f, then fix.
    for (std::size_t i = 0; i < f.size(); ++i) {
        f[i] *= 1.0 + 0.01 * std::sin(static_cast<double>(i));
    }
    moment_fix(grid, VecView<real_type>{f.data(), grid.rows()}, target);
    const auto fixed =
        conserved(grid, ConstVecView<real_type>{f.data(), grid.rows()});
    EXPECT_NEAR(conservation_error(target, fixed), 0.0, 1e-12);
}

TEST(Distribution, ConservationErrorMetric)
{
    ConservedQuantities a{1.0, 0.0, 1.5};
    ConservedQuantities b{1.0 + 1e-7, 1e-8, 1.5};
    EXPECT_NEAR(conservation_error(a, b), 1e-7, 2e-8);
    EXPECT_DOUBLE_EQ(conservation_error(a, a), 0.0);
}

class OperatorFixture : public ::testing::Test {
protected:
    OperatorFixture() : grid_(32, 31), op_(grid_, ion_species()) {}

    VelocityGrid grid_;
    CollisionOperator op_;
};

TEST_F(OperatorFixture, PatternIsTheNinePointStencil)
{
    const auto& p = op_.pattern();
    EXPECT_EQ(p.rows(), 992);
    index_type max_nnz = 0;
    for (index_type r = 0; r < p.rows(); ++r) {
        max_nnz = std::max(max_nnz, p.row_ptrs[r + 1] - p.row_ptrs[r]);
    }
    EXPECT_EQ(max_nnz, 9);
}

TEST_F(OperatorFixture, MaxwellianIsExactDiscreteEquilibrium)
{
    // The Maxwellian-weighted discretization annihilates the drifting
    // Maxwellian of the SAME moments to machine precision.
    PlasmaState state;
    state.density = 1.3;
    state.u_par = 0.2;
    state.temperature = 0.9;
    std::vector<real_type> f(static_cast<std::size_t>(grid_.rows()));
    std::vector<real_type> cf(static_cast<std::size_t>(grid_.rows()));
    maxwellian(grid_, state, VecView<real_type>{f.data(), grid_.rows()});
    op_.apply(state, {}, ConstVecView<real_type>{f.data(), grid_.rows()},
              VecView<real_type>{cf.data(), grid_.rows()});
    real_type worst = 0;
    for (const auto v : cf) {
        worst = std::max(worst, std::abs(v));
    }
    EXPECT_LT(worst, 1e-12);
}

TEST_F(OperatorFixture, DensityConservedForArbitraryF)
{
    // Flux form + zero-flux boundaries: the weighted column sums of C
    // vanish, so density is conserved for ANY f.
    PlasmaState state;
    std::vector<real_type> f(static_cast<std::size_t>(grid_.rows()));
    for (index_type j = 0; j < grid_.n_vperp(); ++j) {
        for (index_type i = 0; i < grid_.n_vpar(); ++i) {
            f[grid_.row(i, j)] =
                0.1 + 0.05 * std::sin(0.7 * i) * std::cos(0.3 * j);
        }
    }
    std::vector<real_type> cf(static_cast<std::size_t>(grid_.rows()));
    op_.apply(state, {}, ConstVecView<real_type>{f.data(), grid_.rows()},
              VecView<real_type>{cf.data(), grid_.rows()});
    real_type density_rate = 0;
    real_type magnitude = 0;
    for (index_type j = 0; j < grid_.n_vperp(); ++j) {
        for (index_type i = 0; i < grid_.n_vpar(); ++i) {
            density_rate += cf[grid_.row(i, j)] * grid_.cell_volume(j);
            magnitude +=
                std::abs(cf[grid_.row(i, j)]) * grid_.cell_volume(j);
        }
    }
    EXPECT_LT(std::abs(density_rate), 1e-12 * std::max(magnitude, 1.0));
}

TEST_F(OperatorFixture, RelaxesPerturbationTowardEquilibrium)
{
    // C must push a perturbed distribution back toward the Maxwellian:
    // the L2 distance to equilibrium decreases under a small explicit
    // step.
    PlasmaState state;
    std::vector<real_type> m(static_cast<std::size_t>(grid_.rows()));
    maxwellian(grid_, state, VecView<real_type>{m.data(), grid_.rows()});
    auto f = m;
    for (index_type j = 0; j < grid_.n_vperp(); ++j) {
        for (index_type i = 0; i < grid_.n_vpar(); ++i) {
            f[grid_.row(i, j)] *= 1.0 + 0.1 * std::sin(0.5 * i + 0.2 * j);
        }
    }
    std::vector<real_type> cf(static_cast<std::size_t>(grid_.rows()));
    op_.apply(state, {}, ConstVecView<real_type>{f.data(), grid_.rows()},
              VecView<real_type>{cf.data(), grid_.rows()});
    real_type before = 0;
    real_type after = 0;
    const real_type dt = 1e-3;
    for (std::size_t i = 0; i < f.size(); ++i) {
        before += (f[i] - m[i]) * (f[i] - m[i]);
        const real_type stepped = f[i] + dt * cf[i];
        after += (stepped - m[i]) * (stepped - m[i]);
    }
    EXPECT_LT(after, before);
}

TEST_F(OperatorFixture, AssembledMatrixIsNonsymmetricAndNearIdentity)
{
    PlasmaState state;
    BatchCsr<real_type> batch(1, grid_.rows(), op_.pattern().row_ptrs,
                              op_.pattern().col_idxs);
    op_.assemble(state, {}, 0.0035, batch.values(0));
    const auto stats = compute_stats(batch);
    EXPECT_FALSE(stats.numerically_symmetric);
    EXPECT_TRUE(stats.pattern_symmetric);
    // Backward Euler of a small step: diagonal near 1.
    std::vector<real_type> diag(static_cast<std::size_t>(grid_.rows()));
    extract_diagonal(batch.entry(0),
                     VecView<real_type>{diag.data(), grid_.rows()});
    for (const auto d : diag) {
        EXPECT_GT(d, 0.5);
        EXPECT_LT(d, 3.0);
    }
}

TEST_F(OperatorFixture, ScreeningTablesReflectShape)
{
    PlasmaState state;
    std::vector<real_type> f(static_cast<std::size_t>(grid_.rows()));
    maxwellian(grid_, state, VecView<real_type>{f.data(), grid_.rows()});
    const auto table = op_.set_background(
        state, ConstVecView<real_type>{f.data(), grid_.rows()});
    for (const auto k : table) {
        EXPECT_NEAR(k, 1.0, 0.05);  // Maxwellian: ratio ~ 1 in every shell
    }
    // A beam-loaded distribution deviates in the high-speed shells.
    PlasmaState beam = state;
    beam.u_par = 2.5;
    beam.density = 0.4;
    std::vector<real_type> g(static_cast<std::size_t>(grid_.rows()));
    maxwellian(grid_, beam, VecView<real_type>{g.data(), grid_.rows()});
    for (std::size_t i = 0; i < f.size(); ++i) {
        f[i] += g[i];
    }
    const auto loaded = op_.set_background(
        state, ConstVecView<real_type>{f.data(), grid_.rows()});
    real_type max_dev = 0;
    for (const auto k : loaded) {
        max_dev = std::max(max_dev, std::abs(k - 1.0));
    }
    EXPECT_GT(max_dev, 0.2);
}

bool same_bits(const std::vector<real_type>& x,
               const std::vector<real_type>& y)
{
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(real_type)) ==
               0;
}

/// Per-face reference assembly of A = I - dt * C: one exp per Maxwellian
/// ratio M_face / M_cell and a linear search for each coefficient's CSR
/// slot. Reads only the operator's public grid, pattern and species.
std::vector<real_type> reference_assembly(
    const CollisionOperator& op, const PlasmaState& state,
    const std::vector<real_type>& screening, real_type dt)
{
    const auto& grid = op.grid();
    const auto& pattern = op.pattern();
    const auto& species = op.species();
    std::vector<real_type> c(pattern.col_idxs.size(), 0.0);
    const auto add = [&](index_type row, index_type col, real_type coeff) {
        for (index_type p = pattern.row_ptrs[row];
             p < pattern.row_ptrs[row + 1]; ++p) {
            if (pattern.col_idxs[p] == col) {
                c[static_cast<std::size_t>(p)] += coeff;
                return;
            }
        }
        ADD_FAILURE() << "coefficient outside the 9-point stencil";
    };
    const auto screen = [&](real_type wbar) {
        if (screening.empty()) {
            return real_type{1};
        }
        const auto n = static_cast<int>(screening.size());
        const real_type pos = std::clamp(wbar / 8.0 * n - 0.5, 0.0,
                                         static_cast<real_type>(n - 1));
        const int lo = static_cast<int>(pos);
        const int hi = std::min(lo + 1, n - 1);
        const real_type frac = pos - lo;
        const real_type kappa =
            (1 - frac) * screening[static_cast<std::size_t>(lo)] +
            frac * screening[static_cast<std::size_t>(hi)];
        return 1 + species.screening_strength * (kappa - 1);
    };
    const real_type t2 = state.temperature;
    const auto tensor = [&](real_type vpar, real_type vperp, real_type& d11,
                            real_type& d12, real_type& d22) {
        const real_type w1 = vpar - state.u_par;
        const real_type w2 = vperp;
        const real_type w_sq = w1 * w1 + w2 * w2;
        if (w_sq < 1e-12) {
            d11 = d22 = t2;
            d12 = 0;
            return;
        }
        const real_type wbar = std::sqrt(w_sq / t2);
        const real_type denom = 1 + wbar * wbar * wbar / 3;
        const real_type kappa = screen(wbar);
        const real_type phi_par = kappa * t2 / denom;
        const real_type phi_perp = kappa * t2 * (1 + wbar * wbar / 4) / denom;
        const real_type diff = phi_par - phi_perp;
        d11 = phi_perp + diff * (w1 * w1) / w_sq;
        d22 = phi_perp + diff * (w2 * w2) / w_sq;
        d12 = diff * (w1 * w2) / w_sq;
    };
    const auto log_m = [&](real_type vpar, real_type vperp) {
        const real_type w1 = vpar - state.u_par;
        return -(w1 * w1 + vperp * vperp) / (2 * t2);
    };
    const auto ratio = [](real_type log_m_face, real_type log_m_cell) {
        return std::exp(log_m_face - log_m_cell);
    };
    const index_type nx = grid.n_vpar();
    const index_type ny = grid.n_vperp();
    const real_type d1 = grid.dvpar();
    const real_type d2 = grid.dvperp();
    const real_type k = species.collision_rate *
                        (state.density / species.reference_density) /
                        std::pow(t2, 1.5);

    // v_par faces, grid line by grid line.
    for (index_type j = 0; j < ny; ++j) {
        const real_type vperp_c = grid.vperp(j);
        for (index_type i = 0; i + 1 < nx; ++i) {
            const real_type vpar_f = grid.vpar(i) + d1 / 2;
            real_type d11;
            real_type d12;
            real_type d22;
            tensor(vpar_f, vperp_c, d11, d12, d22);
            const real_type lmf = log_m(vpar_f, vperp_c);
            const index_type left = grid.row(i, j);
            const index_type right = grid.row(i + 1, j);
            const auto flux = [&](index_type col, real_type coeff) {
                add(left, col, k * coeff / d1);
                add(right, col, -k * coeff / d1);
            };
            flux(left,
                 -d11 * ratio(lmf, log_m(grid.vpar(i), vperp_c)) / d1);
            flux(right,
                 d11 * ratio(lmf, log_m(grid.vpar(i + 1), vperp_c)) / d1);
            if (j > 0 && j + 1 < ny) {
                const real_type c4 = d12 / (4 * d2);
                const auto mixed = [&](index_type ii, index_type jj,
                                       real_type sign) {
                    flux(grid.row(ii, jj),
                         sign * c4 *
                             ratio(lmf,
                                   log_m(grid.vpar(ii), grid.vperp(jj))));
                };
                mixed(i, j + 1, 1);
                mixed(i + 1, j + 1, 1);
                mixed(i, j - 1, -1);
                mixed(i + 1, j - 1, -1);
            }
        }
    }
    // v_perp faces, grid line by grid line.
    for (index_type j = 0; j + 1 < ny; ++j) {
        const real_type vperp_f = grid.vperp_face(j + 1);
        const real_type jac_b = grid.vperp(j);
        const real_type jac_t = grid.vperp(j + 1);
        for (index_type i = 0; i < nx; ++i) {
            const real_type vpar_c = grid.vpar(i);
            real_type d11;
            real_type d12;
            real_type d22;
            tensor(vpar_c, vperp_f, d11, d12, d22);
            const real_type lmf = log_m(vpar_c, vperp_f);
            const index_type bottom = grid.row(i, j);
            const index_type top = grid.row(i, j + 1);
            const auto flux = [&](index_type col, real_type coeff) {
                add(bottom, col, k * coeff * vperp_f / (jac_b * d2));
                add(top, col, -k * coeff * vperp_f / (jac_t * d2));
            };
            flux(bottom,
                 -d22 * ratio(lmf, log_m(vpar_c, grid.vperp(j))) / d2);
            flux(top,
                 d22 * ratio(lmf, log_m(vpar_c, grid.vperp(j + 1))) / d2);
            if (i > 0 && i + 1 < nx) {
                const real_type c4 = d12 / (4 * d1);
                const auto mixed = [&](index_type ii, index_type jj,
                                       real_type sign) {
                    flux(grid.row(ii, jj),
                         sign * c4 *
                             ratio(lmf,
                                   log_m(grid.vpar(ii), grid.vperp(jj))));
                };
                mixed(i + 1, j, 1);
                mixed(i + 1, j + 1, 1);
                mixed(i - 1, j, -1);
                mixed(i - 1, j + 1, -1);
            }
        }
    }
    for (index_type r = 0; r < pattern.rows(); ++r) {
        for (index_type p = pattern.row_ptrs[r];
             p < pattern.row_ptrs[r + 1]; ++p) {
            const auto pi = static_cast<std::size_t>(p);
            c[pi] = (pattern.col_idxs[p] == r ? 1.0 : 0.0) - dt * c[pi];
        }
    }
    return c;
}

/// Screening table of a Maxwellian of `state` loaded with a beam at
/// u_par 2.5 and density 0.4, as in ScreeningTablesReflectShape.
std::vector<real_type> beam_loaded_screening(const CollisionOperator& op,
                                             const PlasmaState& state,
                                             real_type beam_u_par = 2.5)
{
    const auto& grid = op.grid();
    std::vector<real_type> f(static_cast<std::size_t>(grid.rows()));
    std::vector<real_type> g(f.size());
    maxwellian(grid, state, VecView<real_type>{f.data(), grid.rows()});
    PlasmaState beam = state;
    beam.u_par = beam_u_par;
    beam.density = 0.4;
    maxwellian(grid, beam, VecView<real_type>{g.data(), grid.rows()});
    for (std::size_t i = 0; i < f.size(); ++i) {
        f[i] += g[i];
    }
    return op.set_background(state,
                             ConstVecView<real_type>{f.data(), grid.rows()});
}

TEST(CollisionOperator, FaceKernelMatchesPerFaceReference)
{
    PlasmaState drifting;
    drifting.density = 1.3;
    drifting.u_par = 0.2;
    drifting.temperature = 0.9;
    const real_type dt = 0.0035;
    // 8 x 7: boundary rows, where faces drop their mixed terms, dominate.
    for (const auto& grid : {VelocityGrid(32, 31), VelocityGrid(8, 7)}) {
        for (const auto& species :
             {ion_species(), electron_species(), ion_species(2)}) {
            const CollisionOperator op(grid, species);
            for (const auto& state : {PlasmaState{}, drifting}) {
                for (const bool screened : {false, true}) {
                    SCOPED_TRACE(species.name + " on " +
                                 std::to_string(grid.n_vpar()) + "x" +
                                 std::to_string(grid.n_vperp()) +
                                 ", u_par " + std::to_string(state.u_par) +
                                 (screened ? ", screened" : ""));
                    const auto screening =
                        screened ? beam_loaded_screening(op, state)
                                 : std::vector<real_type>{};
                    const auto expected =
                        reference_assembly(op, state, screening, dt);
                    std::vector<real_type> values(expected.size());
                    op.assemble(state, screening, dt, values.data());
                    real_type largest = 0;
                    real_type worst = 0;
                    for (std::size_t p = 0; p < values.size(); ++p) {
                        largest = std::max(largest, std::abs(expected[p]));
                        worst = std::max(worst,
                                         std::abs(values[p] - expected[p]));
                    }
                    EXPECT_LE(worst, 1e-13 * largest);
                }
            }
            // A screening table is empty or has one factor per shell.
            std::vector<real_type> values(op.pattern().col_idxs.size());
            EXPECT_THROW(op.assemble(PlasmaState{},
                                     std::vector<real_type>(3, 1.0), dt,
                                     values.data()),
                         DimensionMismatch);
        }
    }
}

TEST(CollisionOperator, SharedOperatorAssemblesConcurrently)
{
    // One const operator serves four threads, each computing the screening
    // and assembling 8 (state, screening table) pairs of its own.
    const VelocityGrid grid(32, 31);
    const CollisionOperator op(grid, electron_species());
    constexpr int num_threads = 4;
    constexpr int per_thread = 8;
    constexpr int num_pairs = num_threads * per_thread;
    const auto nnz = op.pattern().col_idxs.size();
    std::vector<PlasmaState> states(num_pairs);
    for (int k = 0; k < num_pairs; ++k) {
        states[k].density = 1.0 + 0.01 * k;
        states[k].u_par = 0.01 * (k % 7) - 0.03;
        states[k].temperature = 0.8 + 0.015 * k;
    }
    // Every fourth pair runs unscreened.
    const auto pair = [&](int k, std::vector<real_type>& values) {
        const auto screening =
            k % 4 == 0 ? std::vector<real_type>{}
                       : beam_loaded_screening(op, states[k], 1.5 + 0.05 * k);
        op.assemble(states[k], screening, 0.0035, values.data());
    };
    std::vector<std::vector<real_type>> serial(
        num_pairs, std::vector<real_type>(nnz));
    for (int k = 0; k < num_pairs; ++k) {
        pair(k, serial[k]);
    }

    std::vector<std::vector<real_type>> shared(
        num_pairs, std::vector<real_type>(nnz));
    std::vector<std::exception_ptr> errors(num_threads);
    std::vector<std::thread> threads;
    for (int t = 0; t < num_threads; ++t) {
        threads.emplace_back([&, t] {
            try {
                for (int k = t; k < num_pairs; k += num_threads) {
                    pair(k, shared[k]);
                }
            } catch (...) {
                errors[t] = std::current_exception();
            }
        });
    }
    for (auto& thread : threads) {
        thread.join();
    }
    for (const auto& error : errors) {
        if (error) {
            std::rethrow_exception(error);
        }
    }
    for (int k = 0; k < num_pairs; ++k) {
        EXPECT_TRUE(same_bits(shared[k], serial[k])) << "pair " << k;
    }
}

TEST(Workload, SystemLayoutAlternatesSpecies)
{
    WorkloadParams params;
    params.num_mesh_nodes = 3;
    CollisionWorkload w(params);
    EXPECT_EQ(w.num_systems(), 6);
    EXPECT_EQ(w.system_species(0).name, "ion");
    EXPECT_EQ(w.system_species(1).name, "electron");
    EXPECT_EQ(w.system_species(4).name, "ion");
}

TEST(Workload, SingleSpeciesFiltering)
{
    WorkloadParams params;
    params.num_mesh_nodes = 2;
    params.include_electrons = false;
    CollisionWorkload ions_only(params);
    EXPECT_EQ(ions_only.num_systems(), 2);
    EXPECT_EQ(ions_only.system_species(1).name, "ion");
    params.include_electrons = true;
    params.include_ions = false;
    CollisionWorkload electrons_only(params);
    EXPECT_EQ(electrons_only.system_species(0).name, "electron");
    params.include_electrons = false;
    EXPECT_THROW(CollisionWorkload{params}, BadArgument);
}

TEST(Workload, MultiIonSpeciesLayout)
{
    WorkloadParams params;
    params.num_mesh_nodes = 2;
    params.num_ion_species = 3;
    CollisionWorkload w(params);
    EXPECT_EQ(w.num_species(), 4);  // 3 ions + electrons
    EXPECT_EQ(w.num_systems(), 8);
    EXPECT_EQ(w.system_species(0).name, "ion");
    EXPECT_EQ(w.system_species(1).name, "impurity_1");
    EXPECT_EQ(w.system_species(2).name, "impurity_2");
    EXPECT_EQ(w.system_species(3).name, "electron");
    // Impurities collide faster (Z^4 scaling).
    EXPECT_GT(w.system_species(1).collision_rate,
              w.system_species(0).collision_rate);
    EXPECT_GT(w.system_species(2).collision_rate,
              w.system_species(1).collision_rate);
}

TEST(Workload, MultiSpeciesPicardStepConverges)
{
    WorkloadParams wp;
    wp.num_mesh_nodes = 1;
    wp.num_ion_species = 3;
    CollisionWorkload workload(wp);
    SolverSettings s;
    s.tolerance = 1e-10;
    s.max_iterations = 500;
    PicardSettings ps;
    ps.num_iterations = 3;
    const auto report = implicit_collision_step(
        workload, ps, make_reference_solver(s));
    for (const auto& log : report.linear_logs) {
        EXPECT_TRUE(log.all_converged());
    }
    EXPECT_LT(report.max_conservation_error(), 1e-12);
}

TEST(Workload, NodesHaveDistinctProfiles)
{
    WorkloadParams params;
    params.num_mesh_nodes = 4;
    CollisionWorkload w(params);
    const auto m0 = w.system_moments(w.distributions(), 0);
    const auto m2 = w.system_moments(w.distributions(), 2);
    EXPECT_NE(m0.density, m2.density);
    EXPECT_NE(m0.temperature, m2.temperature);
}

TEST(Workload, AssemblyFillsEverySystem)
{
    WorkloadParams params;
    params.num_mesh_nodes = 2;
    CollisionWorkload w(params);
    auto a = w.make_matrix_batch();
    w.assemble_batch(w.distributions(), w.distributions(), 0.0035, a);
    for (size_type sys = 0; sys < w.num_systems(); ++sys) {
        real_type sum = 0;
        for (index_type k = 0; k < a.nnz_per_entry(); ++k) {
            sum += std::abs(a.values(sys)[k]);
        }
        EXPECT_GT(sum, 100.0) << "system " << sys;  // diag alone is ~992
    }
    // Ion and electron matrices must differ (different collisionality).
    real_type diff = 0;
    for (index_type k = 0; k < a.nnz_per_entry(); ++k) {
        diff += std::abs(a.values(0)[k] - a.values(1)[k]);
    }
    EXPECT_GT(diff, 1.0);
}

TEST(Workload, AssemblyRejectsForeignShapes)
{
    WorkloadParams params;
    params.num_mesh_nodes = 2;
    const CollisionWorkload w(params);
    WorkloadParams small = params;
    small.n_vpar = 8;
    small.n_vperp = 7;
    const CollisionWorkload foreign(small);
    ASSERT_EQ(foreign.num_systems(), w.num_systems());
    const auto& f = w.distributions();
    const real_type dt = 0.0035;

    // Same system count, another pattern: the values would be overrun.
    auto foreign_a = foreign.make_matrix_batch();
    EXPECT_THROW(w.assemble_batch(f, f, dt, foreign_a), DimensionMismatch);
    // Iterates and anchors of another grid are too short.
    auto a = w.make_matrix_batch();
    EXPECT_THROW(w.assemble_batch(foreign.distributions(), f, dt, a),
                 DimensionMismatch);
    EXPECT_THROW(w.assemble_batch(f, foreign.distributions(), dt, a),
                 DimensionMismatch);
    EXPECT_THROW(w.assemble_batch(f, f, 0.0, a), BadArgument);
    // A rejected call writes nothing.
    for (size_type sys = 0; sys < a.num_batch(); ++sys) {
        for (index_type k = 0; k < a.nnz_per_entry(); ++k) {
            ASSERT_EQ(a.values(sys)[k], 0.0) << "system " << sys;
        }
    }
}

/// Caps the OpenMP team of the calling thread's parallel regions for one
/// scope.
class TeamSize {
public:
    explicit TeamSize(int threads)
    {
#ifdef _OPENMP
        omp_set_num_threads(threads);
#else
        (void)threads;
#endif
    }
    ~TeamSize()
    {
#ifdef _OPENMP
        omp_set_num_threads(previous_);
#endif
    }
    TeamSize(const TeamSize&) = delete;
    TeamSize& operator=(const TeamSize&) = delete;

private:
#ifdef _OPENMP
    int previous_ = omp_get_max_threads();
#endif
};

std::vector<real_type> batch_values(const BatchCsr<real_type>& a)
{
    return {a.values(0),
            a.values(0) + static_cast<std::size_t>(a.num_batch()) *
                              static_cast<std::size_t>(a.nnz_per_entry())};
}

TEST(Workload, ConcurrentAssemblyMatchesSerial)
{
    WorkloadParams params;
    params.num_mesh_nodes = 32;
    const CollisionWorkload w(params);
    const auto& f = w.distributions();
    const real_type dt = 0.0035;
    auto reference = w.make_matrix_batch();
    {
        const TeamSize serial(1);
        w.assemble_batch(f, f, dt, reference);
    }

    auto first = w.make_matrix_batch();
    auto second = w.make_matrix_batch();
    std::exception_ptr first_error;
    std::exception_ptr second_error;
    const auto assemble_into = [&](BatchCsr<real_type>& out,
                                   std::exception_ptr& error) {
        try {
            w.assemble_batch(f, f, dt, out);
        } catch (...) {
            error = std::current_exception();
        }
    };
    std::thread t1(assemble_into, std::ref(first), std::ref(first_error));
    std::thread t2(assemble_into, std::ref(second), std::ref(second_error));
    t1.join();
    t2.join();
    for (const auto& error : {first_error, second_error}) {
        if (error) {
            std::rethrow_exception(error);
        }
    }
    EXPECT_TRUE(same_bits(batch_values(first), batch_values(reference)));
    EXPECT_TRUE(same_bits(batch_values(second), batch_values(reference)));
}

/// Everything one assembly and one implicit collision step produce.
struct StepOutcome {
    std::vector<real_type> values;
    std::vector<real_type> distributions;
    std::vector<std::vector<int>> iterations;
    real_type nonlinear_change = 0;
    std::vector<real_type> conservation_errors;
    std::vector<real_type> raw_conservation_errors;
};

/// Runs on a team of `threads` threads (0 = the default team).
StepOutcome assemble_and_step(const WorkloadParams& params, int threads)
{
    std::optional<TeamSize> team;
    if (threads > 0) {
        team.emplace(threads);
    }
    CollisionWorkload w(params);
    auto a = w.make_matrix_batch();
    w.assemble_batch(w.distributions(), w.distributions(), 0.0035, a);
    const auto report = implicit_collision_step(
        w, PicardSettings{}, make_reference_solver(SolverSettings{}));
    StepOutcome out;
    out.values = batch_values(a);
    const auto& f = w.distributions();
    out.distributions.assign(
        f.data(), f.data() + static_cast<std::size_t>(f.num_batch()) *
                                 static_cast<std::size_t>(f.len()));
    for (const auto& log : report.linear_logs) {
        out.iterations.push_back(log.all_iterations());
    }
    out.nonlinear_change = report.nonlinear_change;
    out.conservation_errors = report.conservation_errors;
    out.raw_conservation_errors = report.raw_conservation_errors;
    return out;
}

TEST(Workload, AssemblyAndPicardStepIndependentOfThreadCount)
{
    WorkloadParams two_species;
    WorkloadParams three_ions;
    three_ions.num_mesh_nodes = 5;
    three_ions.num_ion_species = 3;  // each blend averages 3 other species
    for (const auto& params : {two_species, three_ions}) {
        const auto serial = assemble_and_step(params, 1);
        ASSERT_EQ(serial.iterations.size(), 5u);
        // 3 threads split the nodes unevenly, and run even when the default
        // team is a single thread.
        for (const int threads : {3, 0}) {
            SCOPED_TRACE("ion species " +
                         std::to_string(params.num_ion_species) +
                         ", threads " + std::to_string(threads));
            const auto team = assemble_and_step(params, threads);
            EXPECT_TRUE(same_bits(team.values, serial.values));
            EXPECT_TRUE(same_bits(team.distributions, serial.distributions));
            EXPECT_EQ(team.iterations, serial.iterations);
            EXPECT_EQ(team.nonlinear_change, serial.nonlinear_change);
            EXPECT_TRUE(same_bits(team.conservation_errors,
                                  serial.conservation_errors));
            EXPECT_TRUE(same_bits(team.raw_conservation_errors,
                                  serial.raw_conservation_errors));
        }
    }
}

class PicardFixture : public ::testing::Test {
protected:
    static PicardReport run(bool warm, int num_nodes = 2,
                            real_type tol = 1e-10)
    {
        WorkloadParams wp;
        wp.num_mesh_nodes = num_nodes;
        CollisionWorkload workload(wp);
        SolverSettings s;
        s.tolerance = tol;
        s.max_iterations = 500;
        PicardSettings ps;
        ps.warm_start = warm;
        return implicit_collision_step(workload, ps,
                                       make_reference_solver(s));
    }
};

TEST_F(PicardFixture, TableThreeShape)
{
    // Table III of the paper: electron iterations decay ~30 -> ~12, ion
    // ~5 -> ~2, monotonically, under warm starting.
    const auto report = run(true);
    ASSERT_EQ(report.picard_iterations, 5);
    const double e0 = report.mean_species_iterations(0, 1, 2);
    const double e4 = report.mean_species_iterations(4, 1, 2);
    const double i0 = report.mean_species_iterations(0, 0, 2);
    const double i4 = report.mean_species_iterations(4, 0, 2);
    EXPECT_NEAR(e0, 30.0, 6.0);
    EXPECT_LT(e4, 0.6 * e0);
    EXPECT_GT(e4, 2.0);
    EXPECT_NEAR(i0, 5.0, 2.0);
    EXPECT_LT(i4, i0);
    // Electron systems are much harder than ion systems (Fig. 2).
    EXPECT_GT(e0, 3.0 * i0);
    for (int k = 1; k < 5; ++k) {
        EXPECT_LE(report.mean_species_iterations(k, 1, 2),
                  report.mean_species_iterations(k - 1, 1, 2) + 0.51)
            << "electron counts must not increase at picard " << k;
    }
}

TEST_F(PicardFixture, WarmStartReducesTotalIterations)
{
    const auto warm = run(true);
    const auto cold = run(false);
    std::int64_t warm_total = 0;
    std::int64_t cold_total = 0;
    for (int k = 0; k < 5; ++k) {
        warm_total += warm.linear_logs[static_cast<std::size_t>(k)]
                          .total_iterations();
        cold_total += cold.linear_logs[static_cast<std::size_t>(k)]
                          .total_iterations();
    }
    EXPECT_LT(warm_total, cold_total);
    // Fig. 8 text: zero-guess electron count stays ~35 at every Picard
    // iteration.
    const double cold_e0 = cold.mean_species_iterations(0, 1, 2);
    const double cold_e4 = cold.mean_species_iterations(4, 1, 2);
    EXPECT_NEAR(cold_e0, cold_e4, 0.25 * cold_e0);
}

TEST_F(PicardFixture, ConservationFixedToMachinePrecision)
{
    const auto report = run(true);
    EXPECT_LT(report.max_conservation_error(), 1e-12);
    // The raw (unfixed) solution drifts by the discretization error.
    real_type raw = 0;
    for (const auto e : report.raw_conservation_errors) {
        raw = std::max(raw, e);
    }
    EXPECT_GT(raw, 1e-12);
    EXPECT_LT(raw, 1e-2);
}

TEST_F(PicardFixture, AllLinearSolvesConverge)
{
    const auto report = run(true);
    for (const auto& log : report.linear_logs) {
        EXPECT_TRUE(log.all_converged());
    }
    EXPECT_TRUE(report.converged);
}

TEST_F(PicardFixture, NonlinearToleranceStopsEarly)
{
    WorkloadParams wp;
    wp.num_mesh_nodes = 1;
    CollisionWorkload workload(wp);
    SolverSettings s;
    s.tolerance = 1e-12;
    s.max_iterations = 500;
    PicardSettings ps;
    ps.num_iterations = 50;
    ps.nonlinear_tol = 1e-8;
    const auto report = implicit_collision_step(
        workload, ps, make_reference_solver(s));
    EXPECT_TRUE(report.converged);
    EXPECT_LT(report.picard_iterations, 50);
    EXPECT_LT(report.nonlinear_change, 1e-8);
}

TEST_F(PicardFixture, LooseLinearToleranceStallsPicard)
{
    // Section V of the paper: raising the linear tolerance above 1e-10
    // prevented the Picard loop from converging.
    WorkloadParams wp;
    wp.num_mesh_nodes = 1;
    CollisionWorkload workload(wp);
    SolverSettings s;
    s.tolerance = 1e-2;  // hopeless
    s.max_iterations = 500;
    PicardSettings ps;
    ps.num_iterations = 20;
    ps.nonlinear_tol = 1e-9;
    const auto report = implicit_collision_step(
        workload, ps, make_reference_solver(s));
    EXPECT_FALSE(report.converged);
    EXPECT_EQ(report.picard_iterations, 20);
}

TEST(Physics, CollisionsIsotropizeTemperatureAnisotropy)
{
    // Start from an anisotropic bi-Maxwellian-like state (T_par > T_perp
    // via a parallel beam) and take several implicit collision steps: the
    // anisotropy ratio must decay monotonically toward 1.
    WorkloadParams wp;
    wp.num_mesh_nodes = 1;
    CollisionWorkload workload(wp);
    SolverSettings s;
    s.tolerance = 1e-10;
    s.max_iterations = 500;
    PicardSettings ps;
    ps.num_iterations = 3;

    const auto ratio_of = [&](size_type sys) {
        return temperature_anisotropy(
                   workload.grid(),
                   ConstVecView<real_type>(
                       workload.distributions().entry(sys)))
            .ratio();
    };
    const double before = ratio_of(1);  // electron: fast relaxation
    EXPECT_GT(before, 1.05);            // the beam loads T_par
    double prev = before;
    for (int step = 0; step < 4; ++step) {
        implicit_collision_step(workload, ps, make_reference_solver(s));
        const double now = ratio_of(1);
        EXPECT_LT(now, prev + 1e-6) << "step " << step;
        prev = now;
    }
    EXPECT_LT(std::abs(prev - 1.0), std::abs(before - 1.0));
}

TEST(Physics, MaxwellianHasUnitAnisotropyRatio)
{
    const VelocityGrid grid(32, 31);
    PlasmaState state;
    state.temperature = 1.3;
    state.u_par = 0.4;
    std::vector<real_type> f(static_cast<std::size_t>(grid.rows()));
    maxwellian(grid, state, VecView<real_type>{f.data(), grid.rows()});
    const auto t = temperature_anisotropy(
        grid, ConstVecView<real_type>{f.data(), grid.rows()});
    EXPECT_NEAR(t.ratio(), 1.0, 0.03);
    EXPECT_NEAR(t.t_par, state.temperature, 0.05 * state.temperature);
}

TEST(Spectrum, IonClusteredElectronSpread)
{
    // Fig. 2 of the paper: ion eigenvalues clustered around 1, electron
    // eigenvalues spread over a wider range of real parts. Run on a
    // smaller grid to keep the dense eigensolver fast.
    WorkloadParams wp;
    wp.n_vpar = 16;
    wp.n_vperp = 15;
    wp.num_mesh_nodes = 1;
    CollisionWorkload w(wp);
    auto a = w.make_matrix_batch();
    w.assemble_batch(w.distributions(), w.distributions(), 0.0035, a);
    const auto ion = lapack::summarize_spectrum(lapack::eigenvalues(a, 0));
    const auto ele = lapack::summarize_spectrum(lapack::eigenvalues(a, 1));
    EXPECT_GT(ion.clustered_fraction, 0.6);
    EXPECT_LT(ele.clustered_fraction, ion.clustered_fraction);
    EXPECT_GT(ele.max_real - ele.min_real,
              2.0 * (ion.max_real - ion.min_real));
    // Both well-conditioned: all eigenvalues in the right half plane.
    EXPECT_GT(ion.min_real, 0.0);
    EXPECT_GT(ele.min_real, 0.0);
}

}  // namespace
}  // namespace bsis::xgc
