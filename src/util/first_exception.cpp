#include "util/first_exception.hpp"

namespace bsis {

void FirstException::keep_current() noexcept
{
#pragma omp critical(bsis_first_exception)
    if (!first_) {
        first_ = std::current_exception();
    }
}

}  // namespace bsis
