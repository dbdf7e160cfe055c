// Per-thread solver workspace.
//
// On the GPU, one thread block owns one system's intermediate vectors
// (shared memory plus a global spill block). On the host, the batch driver
// allocates one Workspace per OpenMP thread and reuses it across the
// systems that thread processes, so no allocation happens inside the solve
// loop.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

#include "blas/batch_vector.hpp"
#include "util/error.hpp"
#include "util/isa.hpp"
#include "util/types.hpp"

namespace bsis {

/// Allocator whose blocks start on a 64-byte cache-line boundary.
template <typename T>
struct CacheLineAllocator {
    using value_type = T;
    static constexpr std::align_val_t alignment{64};

    CacheLineAllocator() = default;
    template <typename U>
    CacheLineAllocator(const CacheLineAllocator<U>&)
    {}

    T* allocate(std::size_t n)
    {
        return static_cast<T*>(::operator new(n * sizeof(T), alignment));
    }
    void deallocate(T* p, std::size_t n)
    {
        ::operator delete(p, n * sizeof(T), alignment);
    }

    friend bool operator==(const CacheLineAllocator&,
                           const CacheLineAllocator&)
    {
        return true;
    }
};

/// Fixed number of equal-length scratch vectors, handed out as views.
///
/// The storage starts on a cache line. A lockstep group's slots are
/// n * W elements long and its lane rows W elements, so every lane row
/// then starts at a multiple of its own size from a line boundary, and
/// none straddles two lines.
class Workspace {
public:
    Workspace() = default;

    Workspace(index_type length, int num_slots)
        : length_(length),
          num_slots_(num_slots),
          storage_(static_cast<std::size_t>(length) * num_slots, 0.0)
    {
        BSIS_ENSURE_ARG(length >= 0 && num_slots >= 0,
                        "negative workspace size");
    }

    index_type length() const { return length_; }
    int num_slots() const { return num_slots_; }

    /// Adopts the requested shape exactly; the backing storage grows but
    /// never shrinks, so repeated solves of any already-seen size do no
    /// allocation. The shape must track the request exactly -- not the
    /// historical maximum -- because slots are handed to kernels and
    /// preconditioners as full-length views: after a 992-row solve, a
    /// 56-row solve must get 56-long slots, not 992-long ones.
    void require(index_type length, int num_slots)
    {
        BSIS_ENSURE_ARG(length >= 0 && num_slots >= 0,
                        "negative workspace size");
        const auto need =
            static_cast<std::size_t>(length) * num_slots;
        if (need > storage_.size()) {
            storage_.assign(need, 0.0);
        }
        length_ = length;
        num_slots_ = num_slots;
    }

    BSIS_INLINE_ONLY VecView<real_type> slot(int i)
    {
        BSIS_ASSERT(i >= 0 && i < num_slots_);
        return {storage_.data() + static_cast<std::size_t>(i) * length_,
                length_};
    }

private:
    index_type length_ = 0;
    int num_slots_ = 0;
    std::vector<real_type, CacheLineAllocator<real_type>> storage_;
};

/// Per-thread workspace pool, persistent across batched solves.
///
/// `run_batch` used to allocate one Workspace per OpenMP thread on EVERY
/// call, which dominates small-batch solve time when callers loop (the
/// Picard driver re-solves the same-shaped batch every nonlinear
/// iteration; the benches re-solve it per repetition). The pool grows but
/// never shrinks, so after the first solve of a given shape, repeated
/// solves do no allocation at all. Intended use is one pool per calling
/// thread (a `thread_local` in the solve driver), indexed by the OpenMP
/// thread id inside the parallel region.
class WorkspacePool {
public:
    /// Grows the pool to `num_threads` workspaces of at least
    /// (`length` x `num_slots`) each. Call OUTSIDE the parallel region:
    /// growing the vector may relocate the workspaces.
    void require(int num_threads, index_type length, int num_slots)
    {
        BSIS_ENSURE_ARG(num_threads >= 0, "negative thread count");
        if (static_cast<int>(workspaces_.size()) < num_threads) {
            workspaces_.resize(static_cast<std::size_t>(num_threads));
        }
        for (auto& ws : workspaces_) {
            ws.require(length, num_slots);
        }
    }

    int num_threads() const
    {
        return static_cast<int>(workspaces_.size());
    }

    BSIS_INLINE_ONLY Workspace& at(int thread)
    {
        BSIS_ASSERT(thread >= 0 &&
                    thread < static_cast<int>(workspaces_.size()));
        return workspaces_[static_cast<std::size_t>(thread)];
    }

private:
    std::vector<Workspace> workspaces_;
};

}  // namespace bsis
