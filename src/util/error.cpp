#include "util/error.hpp"

#include <sstream>

namespace bsis {

void throw_breakdown(const char* where, const char* detail)
{
    throw NumericalBreakdown(where, detail);
}

namespace detail {

void assert_fail(const char* expr, const char* file, int line)
{
    std::ostringstream os;
    os << "bsis internal assertion failed: (" << expr << ") at " << file << ":"
       << line;
    throw Error(os.str());
}

}  // namespace detail

}  // namespace bsis
