// Per-system convergence logging (paper Listing 1 `LogType`).
//
// Each system of the batch converges independently; the logger records the
// final iteration count and residual norm for every system, which feeds
// both the application (convergence verification) and the GPU cost model
// (per-block durations in the wave scheduler).
#pragma once

#include <vector>

#include "core/failure.hpp"
#include "util/types.hpp"

namespace bsis {

/// Final convergence state of every system in a batch.
class BatchLog {
public:
    BatchLog() = default;

    explicit BatchLog(size_type num_batch)
        : iters_(static_cast<std::size_t>(num_batch), 0),
          res_norms_(static_cast<std::size_t>(num_batch), 0.0),
          converged_(static_cast<std::size_t>(num_batch), false),
          failures_(static_cast<std::size_t>(num_batch),
                    FailureClass::max_iters)
    {}

    size_type num_batch() const
    {
        return static_cast<size_type>(iters_.size());
    }

    void record(size_type system, int iterations, real_type res_norm,
                bool converged, FailureClass failure)
    {
        iters_[static_cast<std::size_t>(system)] = iterations;
        res_norms_[static_cast<std::size_t>(system)] = res_norm;
        converged_[static_cast<std::size_t>(system)] = converged;
        failures_[static_cast<std::size_t>(system)] = failure;
    }

    int iterations(size_type system) const
    {
        return iters_[static_cast<std::size_t>(system)];
    }

    real_type residual_norm(size_type system) const
    {
        return res_norms_[static_cast<std::size_t>(system)];
    }

    bool converged(size_type system) const
    {
        return converged_[static_cast<std::size_t>(system)];
    }

    FailureClass failure(size_type system) const
    {
        return failures_[static_cast<std::size_t>(system)];
    }

    /// Per-class tallies over the whole batch (index = FailureClass value).
    FailureCounts failure_counts() const
    {
        FailureCounts counts{};
        for (const auto f : failures_) {
            ++counts[static_cast<std::size_t>(f)];
        }
        return counts;
    }

    /// Vacuously true for an empty batch, matching the executors' empty
    /// early-return reporting success: "no system failed to converge".
    bool all_converged() const
    {
        for (const auto c : converged_) {
            if (!c) {
                return false;
            }
        }
        return true;
    }

    std::int64_t total_iterations() const
    {
        std::int64_t total = 0;
        for (const auto i : iters_) {
            total += i;
        }
        return total;
    }

    int max_iterations() const
    {
        int m = 0;
        for (const auto i : iters_) {
            m = i > m ? i : m;
        }
        return m;
    }

    double mean_iterations() const
    {
        return iters_.empty() ? 0.0
                              : static_cast<double>(total_iterations()) /
                                    static_cast<double>(iters_.size());
    }

    const std::vector<int>& all_iterations() const { return iters_; }

private:
    std::vector<int> iters_;
    std::vector<real_type> res_norms_;
    std::vector<char> converged_;
    std::vector<FailureClass> failures_;
};

/// Per-thread staging buffer for BatchLog writes.
///
/// BatchLog::record(i, ...) writes three arrays at index i; adjacent batch
/// entries recorded by different OpenMP threads land on the same cache
/// line (16 int iteration counts per 64 B line), so the batch drivers'
/// per-entry `record` calls ping-pong lines between cores. Each thread
/// instead appends to its own cache-line-aligned buffer, and one
/// single-threaded merge pass writes the log after the parallel region.
class BatchLogStage {
public:
    explicit BatchLogStage(int num_threads)
        : buffers_(static_cast<std::size_t>(num_threads))
    {}

    void record(int thread, size_type system, int iterations,
                real_type res_norm, bool converged, FailureClass failure)
    {
        buffers_[static_cast<std::size_t>(thread)].entries.push_back(
            {system, iterations, res_norm, converged, failure});
    }

    void merge_into(BatchLog& log) const
    {
        for (const auto& buf : buffers_) {
            for (const auto& e : buf.entries) {
                log.record(e.system, e.iterations, e.res_norm, e.converged,
                           e.failure);
            }
        }
    }

private:
    struct Entry {
        size_type system;
        int iterations;
        real_type res_norm;
        bool converged;
        FailureClass failure;
    };
    /// Aligned so neighbouring threads' vector headers (the end pointer
    /// bumped on every push_back) do not share a cache line either.
    struct alignas(64) ThreadBuffer {
        std::vector<Entry> entries;
    };

public:
    /// Per-thread staging alignment (one cache line), exposed so tests
    /// can assert the false-sharing guarantee.
    static constexpr std::size_t buffer_alignment = alignof(ThreadBuffer);

private:
    std::vector<ThreadBuffer> buffers_;
};

}  // namespace bsis
