#include "xgc/collision_operator.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "util/error.hpp"

namespace bsis::xgc {

CollisionOperator::CollisionOperator(const VelocityGrid& grid,
                                     SpeciesParams species)
    : grid_(grid),
      species_(std::move(species)),
      pattern_(make_stencil_pattern(grid.n_vpar(), grid.n_vperp(),
                                    StencilKind::nine_point)),
      scratch_(pattern_.col_idxs.size(), 0.0)
{}

void CollisionOperator::add(index_type row, index_type col,
                            real_type coeff) const
{
    for (index_type p = pattern_.row_ptrs[row];
         p < pattern_.row_ptrs[row + 1]; ++p) {
        if (pattern_.col_idxs[p] == col) {
            scratch_[static_cast<std::size_t>(p)] += coeff;
            return;
        }
    }
    throw Error("CollisionOperator: coefficient outside 9-point stencil");
}

void CollisionOperator::set_background(const PlasmaState& state,
                                       ConstVecView<real_type> f)
{
    BSIS_ENSURE_DIMS(f.len == grid_.rows(), "distribution size mismatch");
    constexpr int num_shells = 48;
    std::vector<real_type> actual(num_shells, 0.0);
    std::vector<real_type> reference(num_shells, 0.0);

    const real_type t = std::max(state.temperature, real_type{1e-12});
    const real_type vth = std::sqrt(t);
    const real_type maxw_norm =
        state.density /
        std::pow(2 * std::numbers::pi_v<real_type> * t, real_type{1.5});
    for (index_type j = 0; j < grid_.n_vperp(); ++j) {
        const real_type vol = grid_.cell_volume(j);
        const real_type w2 = grid_.vperp(j);
        for (index_type i = 0; i < grid_.n_vpar(); ++i) {
            const real_type w1 = grid_.vpar(i) - state.u_par;
            const real_type wbar = std::sqrt(w1 * w1 + w2 * w2) / vth;
            int shell = static_cast<int>(wbar / screen_max_ * num_shells);
            shell = std::min(shell, num_shells - 1);
            const real_type maxw =
                maxw_norm * std::exp(-(w1 * w1 + w2 * w2) / (2 * t));
            actual[static_cast<std::size_t>(shell)] +=
                f[grid_.row(i, j)] * vol;
            reference[static_cast<std::size_t>(shell)] += maxw * vol;
        }
    }
    screen_.assign(num_shells, real_type{1});
    for (int s = 0; s < num_shells; ++s) {
        if (reference[static_cast<std::size_t>(s)] > real_type{1e-14}) {
            screen_[static_cast<std::size_t>(s)] =
                std::clamp(actual[static_cast<std::size_t>(s)] /
                               reference[static_cast<std::size_t>(s)],
                           real_type{0.2}, real_type{5.0});
        }
    }
}

void CollisionOperator::blend_background(const std::vector<real_type>& other,
                                         real_type weight)
{
    BSIS_ENSURE_DIMS(other.size() == screen_.size(),
                     "screening tables must match");
    for (std::size_t s = 0; s < screen_.size(); ++s) {
        screen_[s] = (1 - weight) * screen_[s] + weight * other[s];
    }
}

real_type CollisionOperator::screening(real_type wbar) const
{
    if (screen_.empty()) {
        return 1;
    }
    const auto n = static_cast<int>(screen_.size());
    const real_type pos =
        std::clamp(wbar / screen_max_ * n - real_type{0.5}, real_type{0},
                   static_cast<real_type>(n - 1));
    const int lo = static_cast<int>(pos);
    const int hi = std::min(lo + 1, n - 1);
    const real_type frac = pos - lo;
    const real_type kappa =
        (1 - frac) * screen_[static_cast<std::size_t>(lo)] +
        frac * screen_[static_cast<std::size_t>(hi)];
    // Modulate with the species' screening strength.
    return 1 + species_.screening_strength * (kappa - 1);
}

void CollisionOperator::tensor(const PlasmaState& state, real_type vpar,
                               real_type vperp, real_type& d11,
                               real_type& d12, real_type& d22) const
{
    const real_type t2 = state.temperature;
    const real_type w1 = vpar - state.u_par;
    const real_type w2 = vperp;
    const real_type w_sq = w1 * w1 + w2 * w2;
    if (w_sq < real_type{1e-12}) {
        d11 = d22 = t2;
        d12 = 0;
        return;
    }
    const real_type wbar = std::sqrt(w_sq / t2);
    // Speed-dependent parallel/perpendicular diffusion (Rosenbluth-like):
    // both decay at high speed, the perpendicular one more slowly --
    // exactly the anisotropy that produces the mixed-derivative terms.
    const real_type denom = 1 + wbar * wbar * wbar / 3;
    const real_type screen = screening(wbar);
    const real_type phi_par = screen * t2 / denom;
    const real_type phi_perp =
        screen * t2 * (1 + wbar * wbar / 4) / denom;
    const real_type diff = phi_par - phi_perp;
    d11 = phi_perp + diff * (w1 * w1) / w_sq;
    d22 = phi_perp + diff * (w2 * w2) / w_sq;
    d12 = diff * (w1 * w2) / w_sq;
}

void CollisionOperator::accumulate(const PlasmaState& state,
                                   real_type scale) const
{
    std::fill(scratch_.begin(), scratch_.end(), real_type{0});
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
    const real_type k = scale * nu;

    // Maxwellian-weighted (Chang-Cooper-type) form of the bracket:
    //   a f + grad f  =  M grad(f / M),   M = exp(-|v - u|^2 / 2T),
    // discretized as  M_face * ((f/M)_R - (f/M)_L) / h. The drifting
    // Maxwellian of the iterate's moments is then an EXACT discrete
    // stationary state, which keeps the moment drift of the implicit
    // solve second order in the deviation from equilibrium.
    const auto log_m = [&](real_type vpar, real_type vperp) {
        const real_type w1 = vpar - state.u_par;
        return -(w1 * w1 + vperp * vperp) / (2 * t2);
    };
    // M_face / M_cell evaluated stably in log space.
    const auto ratio = [&](real_type log_m_face, real_type log_m_cell) {
        return std::exp(log_m_face - log_m_cell);
    };

    // --- v_par faces (between (i, j) and (i+1, j)) ---
    for (index_type j = 0; j < ny; ++j) {
        const real_type vperp_c = grid_.vperp(j);
        for (index_type i = 0; i + 1 < nx; ++i) {
            const real_type vpar_f = grid_.vpar(i) + d1 / 2;
            real_type d11;
            real_type d12;
            real_type d22;
            tensor(state, vpar_f, vperp_c, d11, d12, d22);
            const real_type lmf = log_m(vpar_f, vperp_c);

            const index_type left = grid_.row(i, j);
            const index_type right = grid_.row(i + 1, j);
            // Flux coefficient on a distribution value `col` contributes
            // +c/d1 to the left row and -c/d1 to the right row.
            const auto flux = [&](index_type col, real_type coeff) {
                add(left, col, k * coeff / d1);
                add(right, col, -k * coeff / d1);
            };
            // d11 * M_f * ((f/M)_R - (f/M)_L) / d1
            flux(left, -d11 * ratio(lmf, log_m(grid_.vpar(i), vperp_c)) /
                           d1);
            flux(right,
                 d11 * ratio(lmf, log_m(grid_.vpar(i + 1), vperp_c)) / d1);
            // d12 * M_f * d(f/M)/d vperp at the face; the mixed bracket is
            // dropped on faces adjacent to the vperp boundary (one-sided
            // stencils would leave the 9-point pattern).
            if (j > 0 && j + 1 < ny) {
                const real_type c4 = d12 / (4 * d2);
                const auto mixed = [&](index_type ii, index_type jj,
                                       real_type sign) {
                    flux(grid_.row(ii, jj),
                         sign * c4 *
                             ratio(lmf, log_m(grid_.vpar(ii),
                                              grid_.vperp(jj))));
                };
                mixed(i, j + 1, 1);
                mixed(i + 1, j + 1, 1);
                mixed(i, j - 1, -1);
                mixed(i + 1, j - 1, -1);
            }
        }
    }

    // --- v_perp faces (between (i, j) and (i, j+1)) ---
    for (index_type j = 0; j + 1 < ny; ++j) {
        const real_type vperp_f = grid_.vperp_face(j + 1);
        const real_type jac_b = grid_.vperp(j);
        const real_type jac_t = grid_.vperp(j + 1);
        for (index_type i = 0; i < nx; ++i) {
            const real_type vpar_c = grid_.vpar(i);
            real_type d11;
            real_type d12;
            real_type d22;
            tensor(state, vpar_c, vperp_f, d11, d12, d22);
            const real_type lmf = log_m(vpar_c, vperp_f);

            const index_type bottom = grid_.row(i, j);
            const index_type top = grid_.row(i, j + 1);
            // Cylindrical metric: flux weighted by the face radius and
            // divided by each cell's center radius.
            const auto flux = [&](index_type col, real_type coeff) {
                add(bottom, col, k * coeff * vperp_f / (jac_b * d2));
                add(top, col, -k * coeff * vperp_f / (jac_t * d2));
            };
            // d22 * M_f * ((f/M)_T - (f/M)_B) / d2
            flux(bottom,
                 -d22 * ratio(lmf, log_m(vpar_c, grid_.vperp(j))) / d2);
            flux(top,
                 d22 * ratio(lmf, log_m(vpar_c, grid_.vperp(j + 1))) / d2);
            // d12 * M_f * d(f/M)/d vpar at the face
            if (i > 0 && i + 1 < nx) {
                const real_type c4 = d12 / (4 * d1);
                const auto mixed = [&](index_type ii, index_type jj,
                                       real_type sign) {
                    flux(grid_.row(ii, jj),
                         sign * c4 *
                             ratio(lmf, log_m(grid_.vpar(ii),
                                              grid_.vperp(jj))));
                };
                mixed(i + 1, j, 1);
                mixed(i + 1, j + 1, 1);
                mixed(i - 1, j, -1);
                mixed(i - 1, j + 1, -1);
            }
        }
    }
}

void CollisionOperator::assemble(const PlasmaState& state, real_type dt,
                                 real_type* values) const
{
    BSIS_ENSURE_ARG(dt > 0, "time step must be positive");
    accumulate(state, real_type{1});
    const index_type rows = pattern_.rows();
    for (index_type r = 0; r < rows; ++r) {
        for (index_type p = pattern_.row_ptrs[r];
             p < pattern_.row_ptrs[r + 1]; ++p) {
            const real_type identity =
                pattern_.col_idxs[p] == r ? real_type{1} : real_type{0};
            values[p] =
                identity - dt * scratch_[static_cast<std::size_t>(p)];
        }
    }
}

void CollisionOperator::apply(const PlasmaState& state,
                              ConstVecView<real_type> f,
                              VecView<real_type> out) const
{
    BSIS_ENSURE_DIMS(f.len == grid_.rows() && out.len == grid_.rows(),
                     "distribution size mismatch");
    accumulate(state, real_type{1});
    for (index_type r = 0; r < grid_.rows(); ++r) {
        real_type sum{};
        for (index_type p = pattern_.row_ptrs[r];
             p < pattern_.row_ptrs[r + 1]; ++p) {
            sum += scratch_[static_cast<std::size_t>(p)] *
                   f[pattern_.col_idxs[p]];
        }
        out[r] = sum;
    }
}

}  // namespace bsis::xgc
