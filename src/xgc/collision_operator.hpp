// Nonlinear model Fokker-Planck collision operator on the 2D velocity grid.
//
// A Dougherty/Landau-type operator in flux-divergence form with an
// anisotropic, velocity-dependent diffusion tensor:
//
//   C[f] = nu * div( D(v) [ (v - u) f / t^2 + grad f ] )        t^2 = T/m
//
//   D(v)  = t^2 [ phi_par(w) W + phi_perp(w) (I - W) ],  W = w w^T / |w|^2,
//   w = v - u.
//
// Properties that make it a faithful stand-in for XGC's nonlinear
// Fokker-Planck-Landau operator (see DESIGN.md, substitutions):
//   * nonlinear: u and T are moments of f (frozen per Picard iterate),
//   * the drifting Maxwellian (u, T) is the exact kernel (detailed
//     balance: the bracket vanishes on it for ANY positive-definite D),
//   * the anisotropic tensor has off-diagonal entries -> mixed
//     derivatives -> a genuine 9-point stencil (Fig. 4 of the paper),
//   * conservative discretization (flux form, zero-flux boundaries,
//     cylindrical metric) conserves density exactly,
//   * the discrete operator is nonsymmetric with eigenvalues in the right
//     half plane clustered near 1 after backward Euler (Fig. 2).
//
// Backward Euler: A f^{n+1} = f^n with A = I - dt * C(u, T). Each Picard
// iteration re-assembles A from the current iterate's moments.
#pragma once

#include <vector>

#include "blas/batch_vector.hpp"
#include "matrix/stencil.hpp"
#include "util/types.hpp"
#include "xgc/distribution.hpp"
#include "xgc/grid.hpp"
#include "xgc/species.hpp"

namespace bsis::xgc {

class CollisionOperator {
public:
    CollisionOperator(const VelocityGrid& grid, SpeciesParams species);

    const VelocityGrid& grid() const { return grid_; }
    const SpeciesParams& species() const { return species_; }

    /// The shared 9-point CSR pattern (992 rows for the 32 x 31 grid).
    const StencilPattern& pattern() const { return pattern_; }

    /// Computes the Rosenbluth-like background screening from the current
    /// Picard iterate: the diffusion rates at normalized speed w are scaled
    /// by the actual-to-Maxwellian mass ratio of the speed shell containing
    /// w. This makes the operator depend on the full SHAPE of f (as the
    /// Landau operator's Rosenbluth potentials do), not just its first
    /// three moments -- which is what makes consecutive Picard matrices
    /// differ and the warm-started iteration counts decay gradually
    /// (Table III of the paper). Must be called before assemble()/apply();
    /// without it the screening is 1 (pure Dougherty-type operator).
    void set_background(const PlasmaState& state,
                        ConstVecView<real_type> f);

    /// Raw shell-screening table computed by set_background (one factor
    /// per speed shell; empty if unset).
    const std::vector<real_type>& background_table() const
    {
        return screen_;
    }

    /// Blends another species' screening table into this one with the
    /// given weight (field-particle coupling). Both tables must have been
    /// computed with set_background first.
    void blend_background(const std::vector<real_type>& other,
                          real_type weight);

    /// Assembles A = I - dt * C(u, T) into `values` (CSR value layout of
    /// pattern()). `state` carries the moments of the current Picard
    /// iterate.
    void assemble(const PlasmaState& state, real_type dt,
                  real_type* values) const;

    /// Applies the discrete collision operator C(u,T) to `f` directly
    /// (for operator verification tests): out = C f.
    void apply(const PlasmaState& state, ConstVecView<real_type> f,
               VecView<real_type> out) const;

private:
    /// Adds `coeff * f[col]` to the operator row `row` of the assembly
    /// scratch.
    void add(index_type row, index_type col, real_type coeff) const;

    /// Accumulates all flux contributions of C(u,T) scaled by `scale` into
    /// the scratch (a dense-per-row stencil accumulator).
    void accumulate(const PlasmaState& state, real_type scale) const;

    /// Anisotropic diffusion tensor at velocity (vpar, vperp).
    void tensor(const PlasmaState& state, real_type vpar, real_type vperp,
                real_type& d11, real_type& d12, real_type& d22) const;

    /// Interpolated shell-screening factor at normalized speed wbar.
    real_type screening(real_type wbar) const;

    VelocityGrid grid_;
    SpeciesParams species_;
    StencilPattern pattern_;
    /// Shell screening table over normalized speed [0, screen_max_];
    /// empty = no screening.
    std::vector<real_type> screen_;
    real_type screen_max_ = 8.0;
    /// Scratch: one coefficient per stored nonzero. assemble() and apply()
    /// write it, so they must not run concurrently on one instance;
    /// CollisionWorkload::assemble_batch gives every thread its own copy.
    mutable std::vector<real_type> scratch_;
};

}  // namespace bsis::xgc
