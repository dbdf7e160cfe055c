#include "xgc/workload.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/first_exception.hpp"
#include "util/rng.hpp"

namespace bsis::xgc {

CollisionWorkload::CollisionWorkload(const WorkloadParams& params)
    : params_(params), grid_(params.n_vpar, params.n_vperp)
{
    BSIS_ENSURE_ARG(params.num_mesh_nodes >= 1, "need at least one node");
    BSIS_ENSURE_ARG(params.include_ions || params.include_electrons,
                    "need at least one species");
    if (params.include_ions) {
        BSIS_ENSURE_ARG(params.num_ion_species >= 1,
                        "need at least one ion species");
        for (int i = 0; i < params.num_ion_species; ++i) {
            species_.push_back(ion_species(i));
        }
    }
    if (params.include_electrons) {
        species_.push_back(electron_species());
    }
    for (auto& sp : species_) {
        sp.reference_density = params.reference_density;
    }
    for (const auto& sp : species_) {
        operators_.emplace_back(grid_, sp);
    }

    // Per-node plasma profiles: smoothly varying density / temperature /
    // flow around the reference state, as along a flux surface.
    f_ = BatchVector<real_type>(num_systems(), grid_.rows());
    Rng rng(params.seed);
    for (size_type node = 0; node < params.num_mesh_nodes; ++node) {
        PlasmaState state;
        state.density =
            params.reference_density *
            (1.0 + params.density_variation * (2 * rng.uniform() - 1));
        state.temperature =
            1.0 + params.temperature_variation * (2 * rng.uniform() - 1);
        state.u_par = params.flow_variation * (2 * rng.uniform() - 1);
        for (size_type s = 0; s < num_species(); ++s) {
            // Edge plasmas are non-Maxwellian: start each species as a
            // bulk Maxwellian plus a shifted hot beam (a bump-on-tail-like
            // state the collision step then relaxes). The non-equilibrium
            // shape is what gives the Picard loop real work and makes the
            // warm-started iteration counts decay gradually, as in
            // Table III of the paper.
            auto fv = f_.entry(node * num_species() + s);
            PlasmaState bulk = state;
            bulk.density = 0.82 * state.density;
            maxwellian(grid_, bulk, fv);
            PlasmaState beam = state;
            beam.density = 0.18 * state.density;
            beam.u_par = state.u_par +
                         1.3 * std::sqrt(state.temperature) *
                             (1 + 0.2 * (2 * rng.uniform() - 1));
            beam.temperature = 0.45 * state.temperature;
            std::vector<real_type> beam_f(
                static_cast<std::size_t>(grid_.rows()));
            maxwellian(grid_, beam,
                       VecView<real_type>{beam_f.data(), grid_.rows()});
            for (index_type idx = 0; idx < grid_.rows(); ++idx) {
                fv[idx] += beam_f[static_cast<std::size_t>(idx)];
            }
        }
    }
}

BatchCsr<real_type> CollisionWorkload::make_matrix_batch() const
{
    const auto& pattern = operators_.front().pattern();
    return BatchCsr<real_type>(num_systems(), pattern.rows(),
                               pattern.row_ptrs, pattern.col_idxs);
}

void CollisionWorkload::assemble_batch(const BatchVector<real_type>& iterate,
                                       const BatchVector<real_type>& anchor,
                                       real_type dt,
                                       BatchCsr<real_type>& a) const
{
    // Every check runs before anything is written: a batch of another
    // pattern would be overrun, and no exception of ours may unwind
    // through the OpenMP region below.
    const auto& pattern = operators_.front().pattern();
    BSIS_ENSURE_DIMS(a.num_batch() == num_systems(),
                     "matrix batch size mismatch");
    BSIS_ENSURE_DIMS(a.row_ptrs() == pattern.row_ptrs &&
                         a.col_idxs() == pattern.col_idxs,
                     "matrix batch pattern differs from the operator's");
    BSIS_ENSURE_DIMS(iterate.num_batch() == num_systems() &&
                         anchor.num_batch() == num_systems(),
                     "iterate batch size mismatch");
    BSIS_ENSURE_DIMS(iterate.len() == grid_.rows() &&
                         anchor.len() == grid_.rows(),
                     "iterate length mismatch");
    BSIS_ENSURE_ARG(dt > 0, "time step must be positive");

    // The operators are immutable, so every thread shares operators_; a
    // node's screening tables are local to its iteration, so the values
    // do not depend on which thread takes the node.
    const size_type ns = num_species();
    FirstException failure;
#pragma omp parallel for schedule(dynamic)
    for (size_type node = 0; node < num_mesh_nodes(); ++node) {
        failure.run([&] {
            std::vector<PlasmaState> states(static_cast<std::size_t>(ns));
            std::vector<std::vector<real_type>> tables(
                static_cast<std::size_t>(ns));
            // Maxwellian anchor from the conserved pre-step moments, shell
            // screening from each iterate's shape.
            for (size_type s = 0; s < ns; ++s) {
                const size_type sys = node * ns + s;
                const auto si = static_cast<std::size_t>(s);
                states[si] = system_moments(anchor, sys);
                tables[si] = operators_[si].set_background(
                    states[si], iterate.entry(sys));
            }
            // ...then the field-particle coupling to the other species of
            // the same mesh node: blend in the mean of their screenings
            // with weight w. Then the assembly.
            for (size_type s = 0; s < ns; ++s) {
                const auto si = static_cast<std::size_t>(s);
                std::vector<real_type> screening = tables[si];
                const real_type w = species_[si].cross_species_weight;
                if (ns >= 2 && w > 0) {
                    for (std::size_t k = 0; k < screening.size(); ++k) {
                        real_type other = 0;
                        for (size_type s2 = 0; s2 < ns; ++s2) {
                            if (s2 != s) {
                                other +=
                                    tables[static_cast<std::size_t>(s2)][k] /
                                    static_cast<real_type>(ns - 1);
                            }
                        }
                        screening[k] = (1 - w) * screening[k] + w * other;
                    }
                }
                operators_[si].assemble(states[si], screening, dt,
                                        a.values(node * ns + s));
            }
        });
    }
    failure.rethrow();
}

}  // namespace bsis::xgc
