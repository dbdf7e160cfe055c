// Batched collision-kernel workload: many spatial mesh nodes, two species.
//
// The proxy app is parallelized over configuration-space mesh nodes
// (embarrassingly parallel); at each node, one implicit collision step is
// taken for every species. Each (node, species) pair contributes one
// linear system per Picard iteration -- this class owns those
// distributions, generates per-node plasma profiles, and assembles the
// batched matrices through one immutable CollisionOperator per species,
// which all threads of an assembly share. Batches contain equal numbers
// of ion and electron systems, interleaved, exactly like the paper's
// evaluation batches.
#pragma once

#include <vector>

#include "blas/batch_vector.hpp"
#include "matrix/batch_csr.hpp"
#include "util/types.hpp"
#include "xgc/collision_operator.hpp"
#include "xgc/distribution.hpp"
#include "xgc/grid.hpp"
#include "xgc/species.hpp"

namespace bsis::xgc {

struct WorkloadParams {
    index_type n_vpar = 32;   ///< paper grid: 32 x 31 = 992 rows
    index_type n_vperp = 31;
    size_type num_mesh_nodes = 8;
    bool include_ions = true;
    bool include_electrons = true;
    /// Number of ion species (main ion + impurities); the paper's proxy
    /// uses 1, future XGC targets ~10 (Section II-A).
    int num_ion_species = 1;
    /// Reference density in the code's distribution units. The paper's
    /// XGC distributions are physically scaled; with an ABSOLUTE linear
    /// tolerance of 1e-10 the magnitude of f sets where the warm-started
    /// iteration counts floor out (Table III).
    real_type reference_density = 1.0e4;
    /// Relative spread of the per-node plasma profiles.
    real_type density_variation = 0.15;
    real_type temperature_variation = 0.25;
    real_type flow_variation = 0.05;
    std::uint64_t seed = 7;
};

class CollisionWorkload {
public:
    explicit CollisionWorkload(const WorkloadParams& params);

    const VelocityGrid& grid() const { return grid_; }
    size_type num_mesh_nodes() const { return params_.num_mesh_nodes; }
    size_type num_species() const
    {
        return static_cast<size_type>(species_.size());
    }
    size_type num_systems() const
    {
        return num_mesh_nodes() * num_species();
    }

    /// Species of batch system `sys` (systems are node-major,
    /// species-minor: sys = node * num_species + s).
    const SpeciesParams& system_species(size_type sys) const
    {
        return species_[static_cast<std::size_t>(sys % num_species())];
    }

    /// Current (accepted) distributions, one per system.
    BatchVector<real_type>& distributions() { return f_; }
    const BatchVector<real_type>& distributions() const { return f_; }

    /// Allocates a batch matrix with the shared 9-point pattern.
    BatchCsr<real_type> make_matrix_batch() const;

    /// Assembles A_sys = I - dt * C for every system into `a` (which must
    /// come from make_matrix_batch()). The operator's Maxwellian anchor
    /// (n, u, T) is taken from `anchor` -- the pre-step distribution f^n,
    /// whose invariants the exact collision operator preserves -- while
    /// the Rosenbluth-like shell screening tracks the SHAPE of the current
    /// Picard `iterate`. Pass the same vector for both to linearize fully
    /// at the iterate.
    ///
    /// Mesh nodes are assembled on the OpenMP team; the values do not
    /// depend on the thread count, and concurrent calls on one workload
    /// into different batches are safe. Throws DimensionMismatch unless
    /// `a` has num_systems() entries of the operator pattern and
    /// `iterate`/`anchor` have num_systems() entries of grid().rows()
    /// rows, and BadArgument unless dt > 0; nothing is written then.
    void assemble_batch(const BatchVector<real_type>& iterate,
                        const BatchVector<real_type>& anchor, real_type dt,
                        BatchCsr<real_type>& a) const;

    /// Moments of one system of an iterate.
    PlasmaState system_moments(const BatchVector<real_type>& iterate,
                               size_type sys) const
    {
        return moments(grid_, iterate.entry(sys));
    }

private:
    WorkloadParams params_;
    VelocityGrid grid_;
    std::vector<SpeciesParams> species_;
    /// One immutable operator per species, shared by every thread of
    /// assemble_batch; each system's screening is passed to it per call.
    std::vector<CollisionOperator> operators_;
    BatchVector<real_type> f_;
};

}  // namespace bsis::xgc
