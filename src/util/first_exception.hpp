// First-exception capture for OpenMP parallel regions.
//
// An exception cannot unwind out of an OpenMP region. Each worker runs the
// code that may throw through FirstException::run, which keeps the first
// exception any worker throws and lets the others finish their share;
// after the region, rethrow() throws that exception on the calling thread.
#pragma once

#include <exception>

namespace bsis {

class FirstException {
public:
    /// Runs body(); keeps what it throws if nothing was kept before.
    template <typename Body>
    void run(Body&& body)
    {
        try {
            body();
        } catch (...) {
            keep_current();
        }
    }

    /// Throws the kept exception, if any. Call after the region.
    void rethrow() const
    {
        if (first_) {
            std::rethrow_exception(first_);
        }
    }

private:
    /// Keeps the exception being handled unless one was kept before. Out
    /// of line, so code compiled once per instruction-set copy can run
    /// bodies without emitting std::exception_ptr's members (util/isa.hpp).
    void keep_current() noexcept;

    std::exception_ptr first_;
};

}  // namespace bsis
