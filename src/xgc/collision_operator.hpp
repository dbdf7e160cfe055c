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
//
// Assembly is a face kernel that writes straight into the caller's CSR
// values: the Maxwellian weights come from 1D ratio tables, and a slot map
// built once from the pattern gives each face its CSR positions. The
// operator is immutable after construction and every member function is
// const, so one operator can be shared by any number of threads; the
// per-iterate screening table is an argument, not state.
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
    /// Speed shells of a screening table, over normalized speed [0, 8).
    static constexpr int num_shells = 48;

    /// Throws Error if the pattern built for `grid` is not a 9-point
    /// stencil (a face coefficient would have no CSR slot).
    CollisionOperator(const VelocityGrid& grid, SpeciesParams species);

    const VelocityGrid& grid() const { return grid_; }
    const SpeciesParams& species() const { return species_; }

    /// The shared 9-point CSR pattern (992 rows for the 32 x 31 grid).
    const StencilPattern& pattern() const { return pattern_; }

    /// Returns the Rosenbluth-like background screening of the current
    /// Picard iterate `f`: one actual-to-Maxwellian mass ratio per speed
    /// shell (num_shells entries), by which the diffusion rates at
    /// normalized speed w are scaled. This makes the operator depend on
    /// the full SHAPE of f (as the Landau operator's Rosenbluth potentials
    /// do), not just its first three moments -- which is what makes
    /// consecutive Picard matrices differ and the warm-started iteration
    /// counts decay gradually (Table III of the paper).
    std::vector<real_type> set_background(const PlasmaState& state,
                                          ConstVecView<real_type> f) const;

    /// Assembles A = I - dt * C(u, T) into `values` (CSR value layout of
    /// pattern()). `state` carries the moments of the current Picard
    /// iterate; `screening` is a table from set_background (possibly
    /// blended across species), or empty for no screening (a pure
    /// Dougherty-type operator). Throws BadArgument unless dt > 0 and
    /// DimensionMismatch unless `screening` is empty or has num_shells
    /// entries.
    void assemble(const PlasmaState& state,
                  const std::vector<real_type>& screening, real_type dt,
                  real_type* values) const;

    /// Applies the discrete collision operator C(u, T) to `f` directly
    /// (for operator verification tests): out = C f. Runs the same kernel
    /// as assemble() into a local buffer.
    void apply(const PlasmaState& state,
               const std::vector<real_type>& screening,
               ConstVecView<real_type> f, VecView<real_type> out) const;

private:
    /// Writes the values of C(u, T) into `values` (CSR value layout of
    /// pattern()); every slot is overwritten.
    void accumulate(const PlasmaState& state,
                    const std::vector<real_type>& screening,
                    real_type* values) const;

    VelocityGrid grid_;
    SpeciesParams species_;
    StencilPattern pattern_;
    /// CSR position of each row's 9 stencil neighbours: slots_[9 * row +
    /// 3 * (dj + 1) + (di + 1)] holds the entry of column row(i + di,
    /// j + dj); -1 where the neighbour lies outside the grid.
    std::vector<index_type> slots_;
};

}  // namespace bsis::xgc
