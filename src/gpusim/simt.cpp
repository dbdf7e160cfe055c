#include "gpusim/simt.hpp"

#include "gpusim/sanitizer.hpp"

namespace bsis::gpusim {

BlockTracer::BlockTracer(int block_threads, int warp_size,
                         MemoryHierarchy* mem)
    : block_threads_(block_threads),
      warp_size_(warp_size),
      num_warps_((block_threads + warp_size - 1) / warp_size),
      mem_(mem)
{
    BSIS_ENSURE_ARG(block_threads > 0 && warp_size > 0,
                    "bad block geometry");
    BSIS_ENSURE_ARG(mem != nullptr, "tracer needs a memory hierarchy");
}

void BlockTracer::attach_sanitizer(Sanitizer* sanitizer)
{
    sanitizer_ = sanitizer;
    if (sanitizer_ != nullptr) {
        sanitizer_->begin_block();
    }
}

void BlockTracer::set_warp(int warp)
{
    BSIS_ENSURE_ARG(warp >= 0 && warp < num_warps_,
                    "warp index outside the block");
    warp_ = warp;
}

void BlockTracer::set_kernel(const char* name)
{
    if (sanitizer_ != nullptr) {
        sanitizer_->set_kernel(name);
    }
}

void BlockTracer::instr(int active_lanes)
{
    ++counters_.warp_instructions;
    counters_.active_lane_sum += active_lanes;
}

void BlockTracer::flop(int active_lanes, int per_lane)
{
    instr(active_lanes);
    counters_.flops += static_cast<std::int64_t>(active_lanes) * per_lane;
}

void BlockTracer::global_access(const std::vector<std::uint64_t>& lane_addrs,
                                int bytes_per_lane, bool is_write)
{
    instr(static_cast<int>(lane_addrs.size()));
    if (sanitizer_ != nullptr) {
        sanitizer_->on_global_access(warp_, lane_addrs, bytes_per_lane,
                                     is_write);
    }
    coalesce(lane_addrs, bytes_per_lane, mem_->line_bytes(), segments_);
    for (const auto seg : segments_) {
        mem_->access(seg);
    }
}

void BlockTracer::load_global(const std::vector<std::uint64_t>& lane_addrs,
                              int bytes_per_lane)
{
    global_access(lane_addrs, bytes_per_lane, /*is_write=*/false);
}

void BlockTracer::store_global(const std::vector<std::uint64_t>& lane_addrs,
                               int bytes_per_lane)
{
    // Write-allocate: stores occupy lines like loads for this model.
    global_access(lane_addrs, bytes_per_lane, /*is_write=*/true);
}

void BlockTracer::record_shared(int active_lanes)
{
    instr(active_lanes);
    counters_.shared_accesses += active_lanes;
}

void BlockTracer::load_shared(const std::vector<std::uint64_t>& lane_addrs,
                              int bytes_per_lane)
{
    record_shared(static_cast<int>(lane_addrs.size()));
    if (sanitizer_ != nullptr) {
        sanitizer_->on_shared_access(warp_, lane_addrs, bytes_per_lane,
                                     /*is_write=*/false);
    }
}

void BlockTracer::store_shared(const std::vector<std::uint64_t>& lane_addrs,
                               int bytes_per_lane)
{
    record_shared(static_cast<int>(lane_addrs.size()));
    if (sanitizer_ != nullptr) {
        sanitizer_->on_shared_access(warp_, lane_addrs, bytes_per_lane,
                                     /*is_write=*/true);
    }
}

void BlockTracer::barrier()
{
    barrier(block_threads_);
}

void BlockTracer::barrier(int active_threads)
{
    ++counters_.barriers;
    if (sanitizer_ != nullptr) {
        sanitizer_->on_barrier(active_threads, block_threads_);
    }
}

}  // namespace bsis::gpusim
