#include "xgc/collision_operator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <vector>

#include "util/error.hpp"

namespace bsis::xgc {
namespace {

/// Upper end of the normalized-speed range the screening shells cover.
constexpr real_type screen_max = 8.0;

/// Position of each stencil neighbour in a row of the slot map, by compass
/// direction (east = +v_par, north = +v_perp): 3 * (dj + 1) + (di + 1).
enum Neighbour : int {
    south_west, south, south_east,
    west, centre, east,
    north_west, north, north_east
};

}  // namespace

CollisionOperator::CollisionOperator(const VelocityGrid& grid,
                                     SpeciesParams species)
    : grid_(grid),
      species_(std::move(species)),
      pattern_(make_stencil_pattern(grid.n_vpar(), grid.n_vperp(),
                                    StencilKind::nine_point)),
      slots_(9 * static_cast<std::size_t>(pattern_.rows()), -1)
{
    const index_type nx = grid_.n_vpar();
    const index_type ny = grid_.n_vperp();
    const auto cols = pattern_.col_idxs.begin();
    for (index_type j = 0; j < ny; ++j) {
        for (index_type i = 0; i < nx; ++i) {
            const index_type row = grid_.row(i, j);
            const auto first = cols + pattern_.row_ptrs[row];
            const auto last = cols + pattern_.row_ptrs[row + 1];
            for (index_type dj = -1; dj <= 1; ++dj) {
                for (index_type di = -1; di <= 1; ++di) {
                    if (i + di < 0 || i + di >= nx || j + dj < 0 ||
                        j + dj >= ny) {
                        continue;
                    }
                    const auto hit =
                        std::find(first, last, grid_.row(i + di, j + dj));
                    if (hit == last) {
                        throw Error(
                            "CollisionOperator: coefficient outside 9-point "
                            "stencil");
                    }
                    slots_[static_cast<std::size_t>(9 * row + 3 * (dj + 1) +
                                                    di + 1)] =
                        static_cast<index_type>(hit - cols);
                }
            }
        }
    }
}

std::vector<real_type> CollisionOperator::set_background(
    const PlasmaState& state, ConstVecView<real_type> f) const
{
    BSIS_ENSURE_DIMS(f.len == grid_.rows(), "distribution size mismatch");
    const index_type nx = grid_.n_vpar();
    std::array<real_type, num_shells> actual{};
    std::array<real_type, num_shells> reference{};

    const real_type t = std::max(state.temperature, real_type{1e-12});
    const real_type vth = std::sqrt(t);
    const real_type maxw_norm =
        state.density /
        std::pow(2 * std::numbers::pi_v<real_type> * t, real_type{1.5});
    // The reference Maxwellian factors as exp(-w1^2 / 2t) exp(-w2^2 / 2t).
    std::vector<real_type> maxw_par(static_cast<std::size_t>(nx));
    for (index_type i = 0; i < nx; ++i) {
        const real_type w1 = grid_.vpar(i) - state.u_par;
        maxw_par[static_cast<std::size_t>(i)] = std::exp(-(w1 * w1) / (2 * t));
    }
    for (index_type j = 0; j < grid_.n_vperp(); ++j) {
        const real_type vol = grid_.cell_volume(j);
        const real_type w2 = grid_.vperp(j);
        const real_type maxw_perp =
            maxw_norm * std::exp(-(w2 * w2) / (2 * t));
        for (index_type i = 0; i < nx; ++i) {
            const real_type w1 = grid_.vpar(i) - state.u_par;
            const real_type wbar = std::sqrt(w1 * w1 + w2 * w2) / vth;
            int shell = static_cast<int>(wbar / screen_max * num_shells);
            shell = std::min(shell, num_shells - 1);
            actual[static_cast<std::size_t>(shell)] +=
                f[grid_.row(i, j)] * vol;
            reference[static_cast<std::size_t>(shell)] +=
                maxw_perp * maxw_par[static_cast<std::size_t>(i)] * vol;
        }
    }
    std::vector<real_type> table(num_shells, real_type{1});
    for (std::size_t s = 0; s < table.size(); ++s) {
        if (reference[s] > real_type{1e-14}) {
            table[s] = std::clamp(actual[s] / reference[s], real_type{0.2},
                                  real_type{5.0});
        }
    }
    return table;
}

void CollisionOperator::accumulate(const PlasmaState& state,
                                   const std::vector<real_type>& screening,
                                   real_type* values) const
{
    BSIS_ENSURE_DIMS(screening.empty() ||
                         screening.size() ==
                             static_cast<std::size_t>(num_shells),
                     "screening table must be empty or have num_shells "
                     "entries");
    std::fill(values, values + pattern_.col_idxs.size(), real_type{0});
    const index_type nx = grid_.n_vpar();
    const index_type ny = grid_.n_vperp();
    const real_type d1 = grid_.dvpar();
    const real_type d2 = grid_.dvperp();
    const real_type t2 = state.temperature;
    // Collisionality nu ~ n / T^{3/2} (Coulomb scaling): the moment
    // dependence is part of the nonlinearity the Picard loop resolves.
    const real_type nu = species_.collision_rate *
                         (state.density / species_.reference_density) /
                         std::pow(t2, real_type{1.5});
    // Divisions hoisted out of the face loops: a face itself divides only
    // by 1 + wbar^3 / 3 and by |w|^2, and a v_perp grid line by its two
    // cell radii.
    const real_type inv_t2 = 1 / t2;
    const real_type k11 = nu / (d1 * d1);
    const real_type k22 = nu / (d2 * d2);
    const real_type k12 = nu / (4 * d1 * d2);

    // Maxwellian-weighted (Chang-Cooper-type) form of the bracket:
    //   a f + grad f  =  M grad(f / M),   M = exp(-|v - u|^2 / 2T),
    // discretized as  M_face * ((f/M)_R - (f/M)_L) / h. The drifting
    // Maxwellian of the iterate's moments is then an EXACT discrete
    // stationary state, which keeps the moment drift of the implicit
    // solve second order in the deviation from equilibrium.
    //
    // log M = P(v_par) + Q(v_perp), so every M_face / M_cell ratio a face
    // needs is a product of ratios of neighbouring points on one axis.
    // Each table entry is the exp of a difference of neighbours, so it
    // stays as far from under- and overflow as the per-face ratio.
    const real_type half_inv_t2 = real_type{0.5} * inv_t2;
    const auto p = [&](real_type vpar) {
        const real_type w1 = vpar - state.u_par;
        return -(w1 * w1) * half_inv_t2;
    };
    const auto q = [&](real_type vperp) {
        return -(vperp * vperp) * half_inv_t2;
    };
    std::vector<real_type> work(static_cast<std::size_t>(6 * nx + 4 * ny));
    // v_par face i+1/2 over its cells i and i+1; cell i over cells i+1
    // and i-1.
    real_type* par_face_lo = work.data();
    real_type* par_face_hi = par_face_lo + nx;
    real_type* par_next = par_face_hi + nx;
    real_type* par_prev = par_next + nx;
    // The same along v_perp (face j+1/2 lies between cells j and j+1).
    real_type* perp_face_lo = par_prev + nx;
    real_type* perp_face_hi = perp_face_lo + ny;
    real_type* perp_next = perp_face_hi + ny;
    real_type* perp_prev = perp_next + ny;
    // Tensor entries of one grid line of faces: the normal diagonal entry
    // (d11 on v_par faces, d22 on v_perp faces) and d12.
    real_type* d_nn = perp_prev + ny;
    real_type* d_12 = d_nn + nx;
    for (index_type i = 0; i + 1 < nx; ++i) {
        const real_type pc = p(grid_.vpar(i));
        const real_type pn = p(grid_.vpar(i + 1));
        const real_type pf = p(grid_.vpar(i) + d1 / 2);
        par_face_lo[i] = std::exp(pf - pc);
        par_face_hi[i] = std::exp(pf - pn);
        par_next[i] = std::exp(pc - pn);
        par_prev[i + 1] = std::exp(pn - pc);
    }
    for (index_type j = 0; j + 1 < ny; ++j) {
        const real_type qc = q(grid_.vperp(j));
        const real_type qn = q(grid_.vperp(j + 1));
        const real_type qf = q(grid_.vperp_face(j + 1));
        perp_face_lo[j] = std::exp(qf - qc);
        perp_face_hi[j] = std::exp(qf - qn);
        perp_next[j] = std::exp(qc - qn);
        perp_prev[j + 1] = std::exp(qn - qc);
    }

    // Anisotropic diffusion tensor at drift-frame velocity (w1, w2), where
    // w_normal is the component along the face normal. Speed-dependent
    // parallel/perpendicular diffusion (Rosenbluth-like): both decay at
    // high speed, the perpendicular one more slowly -- exactly the
    // anisotropy that produces the mixed-derivative terms. The rates are
    // scaled by the shell screening interpolated at the normalized speed,
    // modulated with the species' screening strength.
    const bool screened = !screening.empty();
    const real_type strength = species_.screening_strength;
    const auto tensor = [&](real_type w1, real_type w2, real_type w_normal,
                            real_type& dnn, real_type& d12) {
        const real_type w_sq = w1 * w1 + w2 * w2;
        if (w_sq < real_type{1e-12}) {
            dnn = t2;
            d12 = 0;
            return;
        }
        const real_type wbar = std::sqrt(w_sq * inv_t2);
        real_type screen = 1;
        if (screened) {
            const real_type pos = std::clamp(
                wbar * (num_shells / screen_max) - real_type{0.5},
                real_type{0}, real_type{num_shells - 1});
            const int lo = static_cast<int>(pos);
            const int hi = std::min(lo + 1, num_shells - 1);
            const real_type frac = pos - lo;
            const real_type kappa =
                (1 - frac) * screening[static_cast<std::size_t>(lo)] +
                frac * screening[static_cast<std::size_t>(hi)];
            screen = 1 + strength * (kappa - 1);
        }
        const real_type phi_par =
            screen * t2 / (1 + wbar * wbar * wbar * (real_type{1} / 3));
        const real_type phi_perp = phi_par * (1 + wbar * wbar / 4);
        const real_type diff_per_wsq = (phi_par - phi_perp) / w_sq;
        dnn = phi_perp + diff_per_wsq * (w_normal * w_normal);
        d12 = diff_per_wsq * (w1 * w2);
    };

    // Each face adds +coeff to the row on its low side and -coeff to the
    // row on its high side, for each column it couples. Faces run grid
    // line by grid line, v_par faces first, so every slot sums its
    // contributions in a fixed order.

    // --- v_par faces (between (i, j) and (i+1, j)) ---
    for (index_type j = 0; j < ny; ++j) {
        const real_type w2 = grid_.vperp(j);
        for (index_type i = 0; i + 1 < nx; ++i) {
            const real_type w1 = grid_.vpar(i) + d1 / 2 - state.u_par;
            tensor(w1, w2, w1, d_nn[i], d_12[i]);
        }
        // The mixed bracket d12 * M_f * d(f/M)/d v_perp is dropped on
        // faces adjacent to the v_perp boundary (one-sided stencils would
        // leave the 9-point pattern).
        const bool mixed = j > 0 && j + 1 < ny;
        for (index_type i = 0; i + 1 < nx; ++i) {
            const index_type* lo = &slots_[static_cast<std::size_t>(
                9 * grid_.row(i, j))];
            const index_type* hi = lo + 9;
            // d11 * M_f * ((f/M)_R - (f/M)_L) / d1
            const real_type a = k11 * d_nn[i];
            const real_type on_lo = a * par_face_lo[i];
            const real_type on_hi = a * par_face_hi[i];
            values[lo[centre]] -= on_lo;
            values[hi[west]] += on_lo;
            values[lo[east]] += on_hi;
            values[hi[centre]] -= on_hi;
            if (mixed) {
                const real_type b = k12 * d_12[i];
                const real_type up_lo = b * par_face_lo[i] * perp_next[j];
                const real_type up_hi = b * par_face_hi[i] * perp_next[j];
                const real_type down_lo = b * par_face_lo[i] * perp_prev[j];
                const real_type down_hi = b * par_face_hi[i] * perp_prev[j];
                values[lo[north]] += up_lo;
                values[hi[north_west]] -= up_lo;
                values[lo[north_east]] += up_hi;
                values[hi[north]] -= up_hi;
                values[lo[south]] -= down_lo;
                values[hi[south_west]] += down_lo;
                values[lo[south_east]] -= down_hi;
                values[hi[south]] += down_hi;
            }
        }
    }

    // --- v_perp faces (between (i, j) and (i, j+1)) ---
    for (index_type j = 0; j + 1 < ny; ++j) {
        const real_type vperp_f = grid_.vperp_face(j + 1);
        for (index_type i = 0; i < nx; ++i) {
            tensor(grid_.vpar(i) - state.u_par, vperp_f, vperp_f, d_nn[i],
                   d_12[i]);
        }
        // Cylindrical metric: flux weighted by the face radius and divided
        // by each cell's center radius.
        const real_type metric_lo = vperp_f / grid_.vperp(j);
        const real_type metric_hi = vperp_f / grid_.vperp(j + 1);
        const real_type a_lo = k22 * metric_lo;
        const real_type a_hi = k22 * metric_hi;
        const real_type b_lo = k12 * metric_lo;
        const real_type b_hi = k12 * metric_hi;
        for (index_type i = 0; i < nx; ++i) {
            const index_type* lo = &slots_[static_cast<std::size_t>(
                9 * grid_.row(i, j))];
            const index_type* hi = lo + 9 * nx;
            // d22 * M_f * ((f/M)_T - (f/M)_B) / d2
            const real_type on_lo = d_nn[i] * perp_face_lo[j];
            const real_type on_hi = d_nn[i] * perp_face_hi[j];
            values[lo[centre]] -= a_lo * on_lo;
            values[hi[south]] += a_hi * on_lo;
            values[lo[north]] += a_lo * on_hi;
            values[hi[centre]] -= a_hi * on_hi;
            // d12 * M_f * d(f/M)/d vpar at the face, dropped on faces
            // adjacent to the v_par boundary.
            if (i > 0 && i + 1 < nx) {
                const real_type east_lo = d_12[i] * par_next[i] *
                                          perp_face_lo[j];
                const real_type east_hi = d_12[i] * par_next[i] *
                                          perp_face_hi[j];
                const real_type west_lo = d_12[i] * par_prev[i] *
                                          perp_face_lo[j];
                const real_type west_hi = d_12[i] * par_prev[i] *
                                          perp_face_hi[j];
                values[lo[east]] += b_lo * east_lo;
                values[hi[south_east]] -= b_hi * east_lo;
                values[lo[north_east]] += b_lo * east_hi;
                values[hi[east]] -= b_hi * east_hi;
                values[lo[west]] -= b_lo * west_lo;
                values[hi[south_west]] += b_hi * west_lo;
                values[lo[north_west]] -= b_lo * west_hi;
                values[hi[west]] += b_hi * west_hi;
            }
        }
    }
}

void CollisionOperator::assemble(const PlasmaState& state,
                                 const std::vector<real_type>& screening,
                                 real_type dt, real_type* values) const
{
    BSIS_ENSURE_ARG(dt > 0, "time step must be positive");
    accumulate(state, screening, values);
    const index_type rows = pattern_.rows();
    for (index_type r = 0; r < rows; ++r) {
        for (index_type p = pattern_.row_ptrs[r];
             p < pattern_.row_ptrs[r + 1]; ++p) {
            const real_type identity =
                pattern_.col_idxs[p] == r ? real_type{1} : real_type{0};
            values[p] = identity - dt * values[p];
        }
    }
}

void CollisionOperator::apply(const PlasmaState& state,
                              const std::vector<real_type>& screening,
                              ConstVecView<real_type> f,
                              VecView<real_type> out) const
{
    BSIS_ENSURE_DIMS(f.len == grid_.rows() && out.len == grid_.rows(),
                     "distribution size mismatch");
    std::vector<real_type> coeffs(pattern_.col_idxs.size());
    accumulate(state, screening, coeffs.data());
    for (index_type r = 0; r < grid_.rows(); ++r) {
        real_type sum{};
        for (index_type p = pattern_.row_ptrs[r];
             p < pattern_.row_ptrs[r + 1]; ++p) {
            sum += coeffs[static_cast<std::size_t>(p)] *
                   f[pattern_.col_idxs[p]];
        }
        out[r] = sum;
    }
}

}  // namespace bsis::xgc
