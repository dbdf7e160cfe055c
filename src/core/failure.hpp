// Per-system failure taxonomy (solve forensics).
//
// The paper's Listing 1 LogType tells the caller only WHETHER each system
// of the batch converged; for a production XGC run the outer implicit loop
// needs to know WHY a solve failed -- a Krylov breakdown calls for a
// direct-solve retry, a non-finite residual means the physics assembled a
// poisoned operator, stagnation points at the preconditioner. Every solver
// kernel classifies its own exit -- the loop-top exits through the one rule
// `loop_exit`, the algorithm's breakdowns in its body; the class travels
// through EntryResult, BatchLogStage, and BatchLog to the obs metrics
// (`solve.fail.*`) and the flight recorder.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>

#include "obs/metrics.hpp"
#include "util/isa.hpp"
#include "util/types.hpp"

namespace bsis {

/// Why a system's solve ended. `converged` is the success class; all
/// others describe a failure mode. The breakdown classes split the Krylov
/// "serious breakdown" by which coefficient became undefined: the
/// rho-side inner products (rho, the alpha denominator) or the
/// omega-side ones (omega itself, its t.t denominator).
enum class FailureClass : std::uint8_t {
    converged = 0,     ///< stopping criterion met
    max_iters,         ///< iteration limit hit while still making progress
    breakdown_rho,     ///< rho-side inner product vanished (Krylov space
                       ///  cannot be extended / alpha undefined)
    breakdown_omega,   ///< omega-side coefficient vanished (stabilization
                       ///  step undefined)
    stagnated,         ///< iteration limit hit with no residual progress
    non_finite,        ///< residual became NaN/Inf (poisoned input or
                       ///  overflow); detected promptly, solve abandoned
};

inline constexpr int num_failure_classes = 6;

/// Counts per FailureClass, indexed by the enum value.
using FailureCounts = std::array<std::int64_t, num_failure_classes>;

inline const char* failure_class_name(FailureClass c)
{
    switch (c) {
    case FailureClass::converged:
        return "converged";
    case FailureClass::max_iters:
        return "max_iters";
    case FailureClass::breakdown_rho:
        return "breakdown_rho";
    case FailureClass::breakdown_omega:
        return "breakdown_omega";
    case FailureClass::stagnated:
        return "stagnated";
    case FailureClass::non_finite:
        return "non_finite";
    }
    return "unknown";
}

/// Inverse of failure_class_name; returns false when `name` matches no
/// class (out param untouched). Its one user is test_forensics' bundle
/// replay check, which maps a bundle's recorded class name back to the
/// enum; tools/replay_entry compares the names as strings.
inline bool failure_class_from_name(const std::string& name,
                                    FailureClass& out)
{
    for (int i = 0; i < num_failure_classes; ++i) {
        const auto c = static_cast<FailureClass>(i);
        if (name == failure_class_name(c)) {
            out = c;
            return true;
        }
    }
    return false;
}

/// Adds each non-converged class's count to the counter
/// `<prefix>.fail.<class>`. Zero counts are added too, so dashboards see a
/// stable metric set.
inline void record_failure_counts(obs::MetricsRegistry& m,
                                  const std::string& prefix,
                                  const FailureCounts& counts)
{
    for (int i = 0; i < num_failure_classes; ++i) {
        const auto c = static_cast<FailureClass>(i);
        if (c != FailureClass::converged) {
            m.add_named(prefix + ".fail." + failure_class_name(c),
                        counts[static_cast<std::size_t>(i)]);
        }
    }
}

/// A solve that exhausts its iteration budget is `stagnated` rather than
/// `max_iters` when the final residual kept at least this fraction of the
/// initial residual -- i.e. the whole run bought less than 1% reduction.
/// Classification only; the exit point of the solve is unchanged, so the
/// numerical results stay bit-identical across paths.
inline constexpr real_type stagnation_threshold = real_type{0.99};

/// Per-system solve outcome returned by the solver kernels. `failure`
/// carries the kernel's classification of the exit (FailureClass::converged
/// when `converged` is true).
struct EntryResult {
    int iterations = 0;
    real_type residual_norm = 0.0;
    bool converged = false;
    FailureClass failure = FailureClass::max_iters;
};

// The exit rule runs in the lane drivers, once per instruction-set copy
// (util/isa.hpp).
inline namespace BSIS_ISA_NAMESPACE {

/// Classifies an iteration-limit exit from the final residual norm and the
/// initial residual norm `r0`. All kernels and all three execution paths
/// share this rule (through `loop_exit`), so a system classifies
/// identically wherever it runs.
inline FailureClass classify_exhausted(real_type r_norm, real_type r0,
                                       bool converged)
{
    if (converged) {
        return FailureClass::converged;
    }
    if (!std::isfinite(r_norm)) {
        return FailureClass::non_finite;
    }
    if (!(r_norm < stagnation_threshold * r0)) {
        return FailureClass::stagnated;
    }
    return FailureClass::max_iters;
}

/// The exit rule at the top of every solver iteration, on every host
/// kernel and lockstep lane: a system that has `iter` iterations behind it
/// and residual norm `r_norm` stops as converged, else as non-finite
/// (poisoned operands never converge: abandon the system promptly instead
/// of spinning to the limit), else -- its budget spent -- as
/// classify_exhausted says. Otherwise it iterates on, and the algorithm's
/// own breakdown checks come next.
template <typename Stop>
std::optional<EntryResult> loop_exit(const Stop& stop, int iter,
                                     int max_iters, real_type r_norm,
                                     real_type b_norm, real_type r0)
{
    if (stop.done(r_norm, b_norm)) {
        return EntryResult{iter, r_norm, true, FailureClass::converged};
    }
    if (!std::isfinite(r_norm)) {
        return EntryResult{iter, r_norm, false, FailureClass::non_finite};
    }
    if (iter >= max_iters) {
        return EntryResult{iter, r_norm, false,
                           classify_exhausted(r_norm, r0, false)};
    }
    return std::nullopt;
}

}  // inline namespace BSIS_ISA_NAMESPACE

}  // namespace bsis
