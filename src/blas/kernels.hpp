// Dense vector kernels used inside the batched solvers.
//
// These are the per-batch-entry building blocks (Section IV-B of the paper):
// they run on one "thread block"'s data and are written so the compiler can
// inline them into the fused solver kernel, exactly as the CUDA/HIP versions
// are inlined by nvcc/hipcc in GINKGO's single-kernel design.
#pragma once

#include <cmath>

#include "blas/batch_vector.hpp"
#include "util/error.hpp"
#include "util/isa.hpp"
#include "util/types.hpp"

namespace bsis::blas {

/// y := x
template <typename T>
inline void copy(ConstVecView<T> x, VecView<T> y)
{
    BSIS_ASSERT(x.len == y.len);
    for (index_type i = 0; i < x.len; ++i) {
        y[i] = x[i];
    }
}

/// x := alpha
template <typename T>
inline void fill(VecView<T> x, T alpha)
{
    for (index_type i = 0; i < x.len; ++i) {
        x[i] = alpha;
    }
}

/// x := alpha * x
template <typename T>
inline void scal(T alpha, VecView<T> x)
{
    for (index_type i = 0; i < x.len; ++i) {
        x[i] *= alpha;
    }
}

/// y := alpha * x + y
template <typename T>
inline void axpy(T alpha, ConstVecView<T> x, VecView<T> y)
{
    BSIS_ASSERT(x.len == y.len);
    for (index_type i = 0; i < x.len; ++i) {
        y[i] += alpha * x[i];
    }
}

/// y := alpha * x + beta * y
template <typename T>
inline void axpby(T alpha, ConstVecView<T> x, T beta, VecView<T> y)
{
    BSIS_ASSERT(x.len == y.len);
    for (index_type i = 0; i < x.len; ++i) {
        y[i] = alpha * x[i] + beta * y[i];
    }
}

/// Dot product x . y (unconjugated; the library is real-valued).
template <typename T>
inline T dot(ConstVecView<T> x, ConstVecView<T> y)
{
    BSIS_ASSERT(x.len == y.len);
    T sum{};
    for (index_type i = 0; i < x.len; ++i) {
        sum += x[i] * y[i];
    }
    return sum;
}

/// Euclidean norm ||x||_2.
template <typename T>
inline T nrm2(ConstVecView<T> x)
{
    return std::sqrt(dot(x, x));
}

/// z := x .* y (Hadamard product; scalar-Jacobi application).
template <typename T>
inline void mul_elementwise(ConstVecView<T> x, ConstVecView<T> y, VecView<T> z)
{
    BSIS_ASSERT(x.len == y.len && y.len == z.len);
    for (index_type i = 0; i < x.len; ++i) {
        z[i] = x[i] * y[i];
    }
}

// ---- fused single-pass kernels ------------------------------------------
//
// Each of these sweeps its operands exactly once, mirroring the fused GPU
// kernels of Rupp et al. ("Pipelined Iterative Solvers with Kernel Fusion
// for GPUs"): the compositions they replace (copy+axpy, axpy+axpby,
// back-to-back dots over shared operands) each cost one full vector sweep
// per BLAS call on the host, exactly as they cost one kernel launch plus
// one global-memory round trip on the device. Reductions fused into an
// update sweep accumulate in the SAME element order as the unfused
// reference (left to right), so results agree to rounding (see the 4-ulp
// property tests). Output views may alias input views: every iteration
// reads its operands before writing the output element.

/// z := alpha * x + beta * y + gamma * z in one sweep.
///
/// Covers the BiCGStab direction update p = r + beta * (p - omega * v)
/// (alpha=1, beta=-beta*omega, gamma=beta) and the solution update
/// x += alpha * p_hat + omega * s_hat (gamma=1), each previously two
/// sweeps (axpy+axpby / axpy+axpy).
template <typename T>
inline void axpbypcz(T alpha, ConstVecView<T> x, T beta, ConstVecView<T> y,
                     T gamma, VecView<T> z)
{
    BSIS_ASSERT(x.len == z.len && y.len == z.len);
    for (index_type i = 0; i < z.len; ++i) {
        z[i] = alpha * x[i] + beta * y[i] + gamma * z[i];
    }
}

/// z := alpha * x + beta * y in one sweep (replaces copy + axpy pairs).
template <typename T>
inline void zaxpby(T alpha, ConstVecView<T> x, T beta, ConstVecView<T> y,
                   VecView<T> z)
{
    BSIS_ASSERT(x.len == z.len && y.len == z.len);
    for (index_type i = 0; i < z.len; ++i) {
        z[i] = alpha * x[i] + beta * y[i];
    }
}

/// z := alpha * x + beta * y, returning ||z||_2, in one sweep.
///
/// Covers the BiCGStab s-vector update s = r - alpha * v + ||s|| and the
/// residual update r = s - omega * t + ||r||, each previously three
/// sweeps (copy + axpy + nrm2).
template <typename T>
inline T zaxpby_nrm2(T alpha, ConstVecView<T> x, T beta, ConstVecView<T> y,
                     VecView<T> z)
{
    BSIS_ASSERT(x.len == z.len && y.len == z.len);
    T sum{};
    for (index_type i = 0; i < z.len; ++i) {
        const T zi = alpha * x[i] + beta * y[i];
        z[i] = zi;
        sum += zi * zi;
    }
    return std::sqrt(sum);
}

/// y := alpha * x + y, returning ||y||_2, in one sweep (the CG/CGS/BiCG
/// residual update r -= alpha * q fused with its norm).
template <typename T>
inline T axpy_nrm2(T alpha, ConstVecView<T> x, VecView<T> y)
{
    BSIS_ASSERT(x.len == y.len);
    T sum{};
    for (index_type i = 0; i < x.len; ++i) {
        const T yi = y[i] + alpha * x[i];
        y[i] = yi;
        sum += yi * yi;
    }
    return std::sqrt(sum);
}

/// Computes d1 := x . y1 and d2 := x . y2 in one sweep over x (the
/// BiCGStab dual reduction t.t / t.s, previously two passes over t).
template <typename T>
inline void dot2(ConstVecView<T> x, ConstVecView<T> y1, ConstVecView<T> y2,
                 T& d1, T& d2)
{
    BSIS_ASSERT(x.len == y1.len && x.len == y2.len);
    T sum1{};
    T sum2{};
    for (index_type i = 0; i < x.len; ++i) {
        sum1 += x[i] * y1[i];
        sum2 += x[i] * y2[i];
    }
    d1 = sum1;
    d2 = sum2;
}

/// Quad reduction in one sweep over three vectors: d_xx := x . x,
/// d_xy := x . y, d_yz := y . z, d_xz := x . z. The pipelined BiCGStab
/// end-of-iteration sweep: with x = t, y = s, z = r_hat it yields t.t and
/// t.s (the omega pair, bit-identical to the classic dot2 since the
/// accumulation order per result is unchanged) plus s.r_hat and t.r_hat,
/// from which the NEXT iteration's rho = s.r_hat - omega * t.r_hat follows
/// without a separate r.r_hat sweep.
template <typename T>
inline void dot4(ConstVecView<T> x, ConstVecView<T> y, ConstVecView<T> z,
                 T& d_xx, T& d_xy, T& d_yz, T& d_xz)
{
    BSIS_ASSERT(x.len == y.len && x.len == z.len);
    T sum_xx{};
    T sum_xy{};
    T sum_yz{};
    T sum_xz{};
    for (index_type i = 0; i < x.len; ++i) {
        sum_xx += x[i] * x[i];
        sum_xy += x[i] * y[i];
        sum_yz += y[i] * z[i];
        sum_xz += x[i] * z[i];
    }
    d_xx = sum_xx;
    d_xy = sum_xy;
    d_yz = sum_yz;
    d_xz = sum_xz;
}

/// Paired update: y1 := alpha * x1 + beta * y1 and y2 := alpha * x2 +
/// beta * y2 in one loop (the BiCG primal/shadow direction updates, which
/// share their scalars).
template <typename T>
inline void axpby2(T alpha, ConstVecView<T> x1, ConstVecView<T> x2, T beta,
                   VecView<T> y1, VecView<T> y2)
{
    BSIS_ASSERT(x1.len == y1.len && x2.len == y2.len && y1.len == y2.len);
    for (index_type i = 0; i < y1.len; ++i) {
        y1[i] = alpha * x1[i] + beta * y1[i];
        y2[i] = alpha * x2[i] + beta * y2[i];
    }
}

// ---- batch-lockstep kernels ---------------------------------------------
//
// Width-W lane-group variants of the fused kernels above: one call
// advances W batch entries through the same sweep simultaneously over
// batch-interleaved storage (element i of lane l at data[i*W + l]), so the
// inner lane loop is one contiguous width-W vector operation -- the CPU
// SIMD analogue of the paper's warp lanes sweeping a system's rows in
// lockstep. All scalars are per-lane arrays; per-lane masking is done by
// COEFFICIENTS, not branches: an inactive lane passes (0, ..., 1) so its
// column is left untouched (z = 0*x + 0*y + 1*z) and the loop body stays
// branch-free. Lane columns never mix, so a stale or non-finite value in a
// parked lane cannot leak into its neighbours. Reductions accumulate
// per-lane in ascending element order -- the same order as the scalar
// fused kernels -- so a lockstep lane reproduces the scalar solve's
// rounding behaviour. At W = 1 they are the scalar path's own sweeps over
// plain vectors (core/lockstep.hpp's width-1 group).
//
// W is a compile-time parameter: the lane loop has constant trip count, so
// `#pragma omp simd` turns it into straight vector code. The lane kernels
// are compiled once per instruction-set copy (util/isa.hpp).
inline namespace BSIS_ISA_NAMESPACE {

/// z(:, l) := alpha[l] * x(:, l) + beta[l] * y(:, l) + gamma[l] * z(:, l).
template <int W, typename T>
inline void axpbypcz_lanes(const T* alpha, const T* x, const T* beta,
                           const T* y, const T* gamma, T* z, index_type n)
{
    for (index_type i = 0; i < n; ++i) {
#pragma omp simd
        for (int l = 0; l < W; ++l) {
            z[i * W + l] = alpha[l] * x[i * W + l] + beta[l] * y[i * W + l] +
                           gamma[l] * z[i * W + l];
        }
    }
}

/// z(:, l) := alpha[l] * x(:, l) + beta[l] * y(:, l), and
/// norm[l] := ||z(:, l)||_2, in one sweep.
template <int W, typename T>
inline void zaxpby_nrm2_lanes(const T* alpha, const T* x, const T* beta,
                              const T* y, T* z, index_type n, T* norm)
{
    T sum[W] = {};
    for (index_type i = 0; i < n; ++i) {
#pragma omp simd
        for (int l = 0; l < W; ++l) {
            const T zi = alpha[l] * x[i * W + l] + beta[l] * y[i * W + l];
            z[i * W + l] = zi;
            sum[l] += zi * zi;
        }
    }
    for (int l = 0; l < W; ++l) {
        norm[l] = std::sqrt(sum[l]);
    }
}

/// y(:, l) := y(:, l) + alpha[l] * x(:, l) (a retired lane passes 0).
template <int W, typename T>
inline void axpy_lanes(const T* alpha, const T* x, T* y, index_type n)
{
    for (index_type i = 0; i < n; ++i) {
#pragma omp simd
        for (int l = 0; l < W; ++l) {
            y[i * W + l] += alpha[l] * x[i * W + l];
        }
    }
}

/// y(:, l) := y(:, l) + alpha[l] * x(:, l), and norm[l] := ||y(:, l)||_2,
/// in one sweep (the CG residual update).
template <int W, typename T>
inline void axpy_nrm2_lanes(const T* alpha, const T* x, T* y, index_type n,
                            T* norm)
{
    T sum[W] = {};
    for (index_type i = 0; i < n; ++i) {
#pragma omp simd
        for (int l = 0; l < W; ++l) {
            const T yi = y[i * W + l] + alpha[l] * x[i * W + l];
            y[i * W + l] = yi;
            sum[l] += yi * yi;
        }
    }
    for (int l = 0; l < W; ++l) {
        norm[l] = std::sqrt(sum[l]);
    }
}

/// d[l] := x(:, l) . y(:, l) for all lanes.
template <int W, typename T>
inline void dot_lanes(const T* x, const T* y, index_type n, T* d)
{
    T sum[W] = {};
    for (index_type i = 0; i < n; ++i) {
#pragma omp simd
        for (int l = 0; l < W; ++l) {
            sum[l] += x[i * W + l] * y[i * W + l];
        }
    }
    for (int l = 0; l < W; ++l) {
        d[l] = sum[l];
    }
}

/// d1[l] := x(:, l) . y1(:, l) and d2[l] := x(:, l) . y2(:, l) in one
/// sweep over x (the lockstep dual reduction t.t / t.s).
template <int W, typename T>
inline void dot2_lanes(const T* x, const T* y1, const T* y2, index_type n,
                       T* d1, T* d2)
{
    T sum1[W] = {};
    T sum2[W] = {};
    for (index_type i = 0; i < n; ++i) {
#pragma omp simd
        for (int l = 0; l < W; ++l) {
            sum1[l] += x[i * W + l] * y1[i * W + l];
            sum2[l] += x[i * W + l] * y2[i * W + l];
        }
    }
    for (int l = 0; l < W; ++l) {
        d1[l] = sum1[l];
        d2[l] = sum2[l];
    }
}

/// z(:, l) := alpha[l] * x(:, l) + beta[l] * y(:, l) in one sweep (the
/// two-term updates; a parked lane's column is dead until its refill
/// rewrites it, so masking it to zero is as safe as keeping it).
template <int W, typename T>
inline void zaxpby_lanes(const T* alpha, const T* x, const T* beta,
                         const T* y, T* z, index_type n)
{
    for (index_type i = 0; i < n; ++i) {
#pragma omp simd
        for (int l = 0; l < W; ++l) {
            z[i * W + l] = alpha[l] * x[i * W + l] + beta[l] * y[i * W + l];
        }
    }
}

/// Triple dot + norm in one sweep, per lane: d_xy[l] := x . y,
/// d_xx[l] := x . x, d_xz[l] := x . z and z_norm[l] := ||z||_2. The
/// pipelined CG reduction sweep (x = q, y = p, z = r): q.p is alpha's
/// denominator, and q.q / q.r feed the residual-norm recurrence
/// ||r - alpha q||^2 = ||r||^2 - 2 alpha q.r + alpha^2 q.q, re-anchored by
/// the freshly measured ||r|| each iteration so recurrence rounding never
/// compounds.
template <int W, typename T>
inline void dot3_nrm2_lanes(const T* x, const T* y, const T* z, index_type n,
                            T* d_xy, T* d_xx, T* d_xz, T* z_norm)
{
    T sum_xy[W] = {};
    T sum_xx[W] = {};
    T sum_xz[W] = {};
    T sum_zz[W] = {};
    for (index_type i = 0; i < n; ++i) {
#pragma omp simd
        for (int l = 0; l < W; ++l) {
            sum_xy[l] += x[i * W + l] * y[i * W + l];
            sum_xx[l] += x[i * W + l] * x[i * W + l];
            sum_xz[l] += x[i * W + l] * z[i * W + l];
            sum_zz[l] += z[i * W + l] * z[i * W + l];
        }
    }
    for (int l = 0; l < W; ++l) {
        d_xy[l] = sum_xy[l];
        d_xx[l] = sum_xx[l];
        d_xz[l] = sum_xz[l];
        z_norm[l] = std::sqrt(sum_zz[l]);
    }
}

/// z(:, l) := diag(:, l) .* x(:, l) for lanes with mask[l] != 0 (the
/// lockstep scalar-Jacobi apply; masking keeps a parked lane's stale
/// scratch from being recomputed into NaN via 0 * inf).
template <int W, typename T>
inline void mul_elementwise_lanes(const T* diag, const T* x, const T* mask,
                                  T* z, index_type n)
{
    for (index_type i = 0; i < n; ++i) {
#pragma omp simd
        for (int l = 0; l < W; ++l) {
            z[i * W + l] = mask[l] != T{0} ? diag[i * W + l] * x[i * W + l]
                                           : z[i * W + l];
        }
    }
}

/// z(:, l) := x(:, l) for lanes with mask[l] != 0 (lockstep identity-
/// preconditioner apply).
template <int W, typename T>
inline void copy_lanes(const T* x, const T* mask, T* z, index_type n)
{
    for (index_type i = 0; i < n; ++i) {
#pragma omp simd
        for (int l = 0; l < W; ++l) {
            z[i * W + l] = mask[l] != T{0} ? x[i * W + l] : z[i * W + l];
        }
    }
}

}  // inline namespace BSIS_ISA_NAMESPACE

}  // namespace bsis::blas
