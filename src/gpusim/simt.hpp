// SIMT execution tracer.
//
// Kernels in simt_kernels.cpp are written against this tracer the way a
// CUDA/HIP kernel is written against a thread block: warp-level
// instructions with explicit active-lane masks and per-lane memory
// addresses. The tracer feeds global accesses through the coalescing unit
// and cache hierarchy and accumulates the counters NVIDIA Nsight Compute /
// AMD rocprof report -- warp (wavefront) utilization and L1/L2 hit rates --
// which reproduces Table II of the paper.
//
// A Sanitizer (gpusim/sanitizer.hpp) can be attached to observe addressed
// shared/global accesses, warp attribution, and barriers for race,
// divergence, and bounds checking; attaching one never changes counters or
// cache behaviour.
#pragma once

#include <cstdint>
#include <vector>

#include "gpusim/cache.hpp"
#include "util/types.hpp"

namespace bsis::gpusim {

class Sanitizer;

/// Profiler counters of one traced block execution.
struct SimtCounters {
    std::int64_t warp_instructions = 0;
    std::int64_t active_lane_sum = 0;
    std::int64_t shared_accesses = 0;
    std::int64_t flops = 0;
    std::int64_t barriers = 0;

    /// Mean active lanes per issued warp instruction / warp width --
    /// the "wavefront/warp use %" column of Table II.
    double warp_utilization(int warp_size) const
    {
        return warp_instructions == 0
                   ? 0.0
                   : static_cast<double>(active_lane_sum) /
                         (static_cast<double>(warp_instructions) *
                          warp_size);
    }

    SimtCounters& operator+=(const SimtCounters& other)
    {
        warp_instructions += other.warp_instructions;
        active_lane_sum += other.active_lane_sum;
        shared_accesses += other.shared_accesses;
        flops += other.flops;
        barriers += other.barriers;
        return *this;
    }
};

/// One simulated thread block bound to a CU's memory hierarchy.
class BlockTracer {
public:
    BlockTracer(int block_threads, int warp_size, MemoryHierarchy* mem);

    int block_threads() const { return block_threads_; }
    int warp_size() const { return warp_size_; }
    int num_warps() const { return num_warps_; }

    /// Attaches (or detaches, with nullptr) a sanitizer. Starts a fresh
    /// shadow block on the sanitizer; its report keeps accumulating.
    void attach_sanitizer(Sanitizer* sanitizer);
    Sanitizer* sanitizer() const { return sanitizer_; }

    /// Sets the warp issuing the subsequent instructions (sanitizer
    /// attribution; counters are warp-agnostic). Kernels set this as they
    /// walk their per-warp work decomposition.
    void set_warp(int warp);
    int current_warp() const { return warp_; }

    /// Labels subsequent sanitizer findings with the kernel's name.
    void set_kernel(const char* name);

    /// Generic ALU/shuffle warp instruction.
    void instr(int active_lanes);

    /// Arithmetic warp instruction contributing `per_lane` flops per lane.
    void flop(int active_lanes, int per_lane = 1);

    /// One warp global load: `lane_addrs` holds the byte address touched by
    /// each ACTIVE lane; inactive lanes are simply absent.
    void load_global(const std::vector<std::uint64_t>& lane_addrs,
                     int bytes_per_lane);
    void store_global(const std::vector<std::uint64_t>& lane_addrs,
                      int bytes_per_lane);

    /// Addressed shared-memory access: `lane_addrs` holds the byte OFFSET
    /// into the block's shared allocation touched by each active lane (no
    /// cache model: LDS/shared is explicitly managed). Feeds the sanitizer
    /// when one is attached.
    void load_shared(const std::vector<std::uint64_t>& lane_addrs,
                     int bytes_per_lane);
    void store_shared(const std::vector<std::uint64_t>& lane_addrs,
                      int bytes_per_lane);

    /// Block-wide barrier (__syncthreads / s_barrier) with every thread
    /// participating.
    void barrier();

    /// Barrier reached by only `active_threads` of the block's threads --
    /// flagged as barrier divergence by an attached sanitizer when fewer
    /// than block_threads() arrive.
    void barrier(int active_threads);

    const SimtCounters& counters() const { return counters_; }

private:
    /// Common counter bump of the shared loads and stores (exactly once
    /// per access -- the two must not chain through each other, which
    /// would double count).
    void record_shared(int active_lanes);
    void global_access(const std::vector<std::uint64_t>& lane_addrs,
                       int bytes_per_lane, bool is_write);

    int block_threads_;
    int warp_size_;
    int num_warps_;
    MemoryHierarchy* mem_;
    Sanitizer* sanitizer_ = nullptr;
    int warp_ = 0;
    SimtCounters counters_;
    std::vector<std::uint64_t> segments_;
};

}  // namespace bsis::gpusim
