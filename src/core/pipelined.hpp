// Pipelined batched BiCGStab / CG recurrences (Rupp et al., "Pipelined
// Iterative Solvers with Kernel Fusion for GPUs"). The variants are the
// `Pipelined = true` instantiations of the `BicgstabLanes` / `CgLanes`
// policies, on the scalar path's width-1 group (`bicgstab_kernel<true>`,
// `cg_kernel<true>`) and the lockstep slab group alike; this header holds
// the design note and the recurrence norm they share.
//
// The classic fused kernels stop at 3 reduction points per iteration; on
// the lockstep and GPU paths every one is a lane-group synchronization.
// The pipelined variants restructure the recurrences so the quantities the
// NEXT reduction would measure are by-products of reductions already in
// flight:
//
//   BiCGStab: the end-of-iteration dual dot (t.t, t.s) widens into a
//   dot4 over {t, s, r_hat} that also yields s.r_hat and t.r_hat, from
//   which rho_next = s.r_hat - omega * t.r_hat (exact identity for
//   r_next = s - omega t) and ||r_next||^2 = ||s||^2 - 2 omega t.s +
//   omega^2 t.t follow in registers -- the standalone r.r_hat dot and the
//   residual-norm reduction disappear.
//
//   CG: the p.q dot widens into dot3_nrm2_lanes over {q, p, r} yielding q.q,
//   q.r and a freshly measured ||r||, giving ||r - alpha q||^2 = ||r||^2
//   - 2 alpha q.r + alpha^2 q.q; the r.z dot folds into the
//   preconditioner sweep (Prec::apply_dot). alpha and beta are computed
//   from the SAME dot values as the classic kernel, so the CG iterates
//   themselves evolve bit-identically -- only the stopping decisions ride
//   on the recurrence norm.
//
// Drift policy: every recurrence bridges exactly ONE iteration from
// quantities measured in that same iteration (||s|| by the s-update sweep,
// ||r|| by the CG reduction sweep), so recurrence rounding never compounds
// across iterations; the drift tests bound the gap to the true residual at
// exit. Failure detection is the classic variants' own (the loop-top rule,
// then the breakdown rho/omega split); a non-finite recurrence value maps
// to NaN rather than clamping, so the non_finite check fires exactly as on
// a measured norm.
#pragma once

#include <cmath>
#include <limits>

#include "util/isa.hpp"
#include "util/types.hpp"

namespace bsis {
inline namespace BSIS_ISA_NAMESPACE {

/// sqrt of a recurrence-maintained squared norm: tiny negative values
/// (cancellation) clamp to zero, but non-finite values must stay
/// non-finite so the solver's NaN detection behaves exactly as with a
/// measured norm.
inline real_type recurrence_norm(real_type squared)
{
    if (squared > real_type{0}) {
        return std::sqrt(squared);
    }
    return std::isfinite(squared)
               ? real_type{0}
               : std::numeric_limits<real_type>::quiet_NaN();
}

}  // inline namespace BSIS_ISA_NAMESPACE
}  // namespace bsis
