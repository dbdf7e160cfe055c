// The unfused residual sweep the scalar host kernels share.
#pragma once

#include "blas/kernels.hpp"
#include "obs/telemetry.hpp"
#include "util/types.hpp"

namespace bsis {

/// r = b - r and ||r|| for r holding A x: the subtraction and the norm,
/// each in the span of its phase (update, reduction).
inline real_type residual_from_product(ConstVecView<real_type> b,
                                       VecView<real_type> r)
{
    obs::traced(obs::Phase::update, "update", [&] {
        blas::axpby(real_type{1}, b, real_type{-1}, r);
    });
    return obs::traced(obs::Phase::reduction, "reduction", [&] {
        return blas::nrm2(ConstVecView<real_type>(r));
    });
}

/// r = b - A x and ||r||: the SpMV, the subtraction and the norm each run
/// in the span of their phase (spmv, update, reduction). The set-up
/// residual of every scalar kernel but the fused BiCGStab, which fuses the
/// subtraction with the norm; GMRES also runs it at every restart and
/// Richardson at every iteration.
template <typename MatrixView>
real_type residual(const MatrixView& a, ConstVecView<real_type> b,
                   ConstVecView<real_type> x, VecView<real_type> r)
{
    obs::traced(obs::Phase::spmv, "spmv", [&] { spmv(a, x, r); });
    return residual_from_product(b, r);
}

}  // namespace bsis
