// Error handling for the bsis library.
//
// Library-level contract violations throw exceptions derived from
// bsis::Error; internal invariants are checked with BSIS_ASSERT (active in
// all build types -- these solvers are small enough that the checks are
// never on a hot path that matters relative to the numerical work).
#pragma once

#include <stdexcept>
#include <string>

namespace bsis {

/// Base class of all exceptions thrown by the library.
class Error : public std::runtime_error {
public:
    explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when operand dimensions are incompatible.
class DimensionMismatch : public Error {
public:
    DimensionMismatch(const std::string& where, const std::string& detail)
        : Error(where + ": dimension mismatch: " + detail)
    {}
};

/// Thrown when a caller-supplied argument is invalid.
class BadArgument : public Error {
public:
    BadArgument(const std::string& where, const std::string& detail)
        : Error(where + ": bad argument: " + detail)
    {}
};

/// Thrown when a numerical algorithm cannot proceed (e.g. an exactly
/// singular pivot in a direct factorization).
class NumericalBreakdown : public Error {
public:
    NumericalBreakdown(const std::string& where, const std::string& detail)
        : Error(where + ": numerical breakdown: " + detail)
    {}
};

/// Thrown on malformed input files (MatrixMarket etc.).
class ParseError : public Error {
public:
    ParseError(const std::string& where, const std::string& detail)
        : Error(where + ": parse error: " + detail)
    {}
};

/// Throws NumericalBreakdown(where, detail). Out of line, like
/// assert_fail, so code compiled once per instruction-set copy can throw
/// without emitting the exception types' inline members (util/isa.hpp).
[[noreturn]] void throw_breakdown(const char* where, const char* detail);

namespace detail {

[[noreturn]] void assert_fail(const char* expr, const char* file, int line);

}  // namespace detail

}  // namespace bsis

/// Internal invariant check, active in every build type.
#define BSIS_ASSERT(expr)                                         \
    do {                                                          \
        if (!(expr)) {                                            \
            ::bsis::detail::assert_fail(#expr, __FILE__, __LINE__); \
        }                                                         \
    } while (0)

/// Argument validation helper: throws BadArgument naming the function.
#define BSIS_ENSURE_ARG(expr, detail)                         \
    do {                                                      \
        if (!(expr)) {                                        \
            throw ::bsis::BadArgument(__func__, detail);      \
        }                                                     \
    } while (0)

/// Dimension validation helper: throws DimensionMismatch naming the function.
#define BSIS_ENSURE_DIMS(expr, detail)                          \
    do {                                                        \
        if (!(expr)) {                                          \
            throw ::bsis::DimensionMismatch(__func__, detail);  \
        }                                                       \
    } while (0)
