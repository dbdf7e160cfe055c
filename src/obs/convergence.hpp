// ConvergenceHistory: bounded per-system residual trajectories.
//
// The paper's Listing 1 LogType records only the final iteration count and
// residual of every system; this recorder optionally keeps the trajectory
// -- the residual norm at the top of every solver iteration -- behind
// `SolverSettings::record_convergence`. Memory is bounded per system by
// stride decimation: once a trajectory reaches its capacity, every other
// retained point is dropped and the admission stride doubles, so long
// solves keep an evenly thinned trajectory (always including iteration 0)
// plus the exact final point.
//
// Thread safety matches the solver drivers' ownership model: each batch
// system is recorded by exactly one thread (the thread, or lockstep lane,
// solving it), and reads happen after the parallel region. Both host paths
// record straight into the recorder: a lane through its group's pointer, a
// scalar kernel through a HistorySink.
#pragma once

#include <vector>

#include "util/types.hpp"

namespace bsis::obs {

/// One retained trajectory point.
struct HistoryPoint {
    int iteration = 0;
    real_type residual = 0;
};

class ConvergenceHistory {
public:
    /// Sizes the recorder for `num_batch` systems retaining at most
    /// `capacity` (>= 2) trajectory points each. Drops prior content.
    void reset(size_type num_batch, int capacity = 64);

    /// True when reset() has armed the recorder (recording toggled on).
    bool active() const { return capacity_ > 0; }

    size_type num_batch() const
    {
        return static_cast<size_type>(systems_.size());
    }
    int capacity() const { return capacity_; }

    /// Records the residual at the top of `iteration` (0 = initial
    /// residual). Points arriving out of stride are dropped.
    void record(size_type system, int iteration, real_type residual);

    /// Stores the exact final state of the system's solve.
    void finalize(size_type system, int iterations, real_type residual,
                  bool converged);

    /// Retained trajectory (ascending iterations; thinned, never empty
    /// when at least iteration 0 was recorded).
    const std::vector<HistoryPoint>& points(size_type system) const;

    /// Current admission stride (a power of two; 1 until the first
    /// decimation).
    int stride(size_type system) const;

    HistoryPoint final_point(size_type system) const;
    bool converged(size_type system) const;
    bool finalized(size_type system) const;

private:
    struct System {
        std::vector<HistoryPoint> points;
        int stride = 1;
        HistoryPoint final;
        bool converged = false;
        bool finalized = false;
    };

    int capacity_ = 0;
    std::vector<System> systems_;
};

/// One system's trajectory in a recorder: the handle a scalar solver
/// kernel records its residuals through. A null recorder records nothing.
struct HistorySink {
    ConvergenceHistory* history = nullptr;
    size_type system = 0;

    void record(int iteration, real_type residual) const
    {
        if (history != nullptr) {
            history->record(system, iteration, residual);
        }
    }
};

}  // namespace bsis::obs
