// SIMT-traced batched kernels.
//
// These functions replay, warp instruction by warp instruction, the memory
// and execution behavior of the GPU kernels of Section IV-E of the paper:
// the warp-per-row BatchCsr SpMV, the thread-per-row BatchEll SpMV, block
// reductions (dot/norm), streaming vector updates, and the fused BiCGStab
// solver assembled from them. They do no arithmetic on real data -- the
// functional solve happens in bsis_core -- they generate the *access
// trace*, from which the profiler counters of Table II are measured and
// against which the SIMT sanitizer checks races, barrier divergence, and
// bounds.
//
// Vector operands are identified by a byte base address. Addresses below
// `shared_region_end` are byte offsets into the block's shared memory (no
// cache traffic, counted as shared accesses); the traced BiCGStab places
// shared solver vector i at offset i * padded_length * sizeof(real_type),
// followed by the cross-warp reduction scratch. `shared_space` (offset 0)
// marks the first shared vector and remains valid for single-operand
// traces.
#pragma once

#include <cstdint>
#include <vector>

#include "core/storage_config.hpp"
#include "gpusim/sanitizer.hpp"
#include "gpusim/simt.hpp"
#include "util/types.hpp"

namespace bsis::gpusim {

/// End of the shared-memory address window: any base/address below this is
/// interpreted as a byte offset into the block's shared allocation. Global
/// regions (AddressMap) all live far above it.
inline constexpr std::uint64_t shared_region_end = std::uint64_t{1} << 30;

/// Address marker for an operand at the bottom of shared memory.
inline constexpr std::uint64_t shared_space = 0;

/// Whether a base address denotes shared memory.
inline constexpr bool is_shared_addr(std::uint64_t addr)
{
    return addr < shared_region_end;
}

/// Virtual layout of one system's operands. The shared sparsity pattern
/// uses the SAME addresses for every system (it is stored once per batch,
/// Section IV-A), while values and vectors are per-system.
struct AddressMap {
    std::uint64_t values = 0;    ///< this system's nonzero values
    std::uint64_t col_idxs = 0;  ///< shared column indices
    std::uint64_t row_ptrs = 0;  ///< shared row pointers (CSR only)
    std::uint64_t b = 0;         ///< right-hand side
    std::uint64_t spill = 0;     ///< base of this system's spilled vectors
    std::uint64_t log = 0;       ///< per-system convergence log record
    index_type rows = 0;

    static AddressMap for_system(size_type system_index, index_type rows,
                                 index_type nnz_stored,
                                 int num_spill_vectors);

    /// Address of spilled (global-memory) vector number `slot`.
    std::uint64_t spill_vec(int slot) const
    {
        return spill + static_cast<std::uint64_t>(slot) *
                           static_cast<std::uint64_t>(rows) * sizeof(real_type);
    }
};

/// Shared bytes the traced solver actually touches for `config`: the
/// configured vectors plus `scratch_slots_per_warp` cross-warp reduction
/// scratch slots per warp. The classic fused kernels need TWO (the dual-
/// dot publishes two partials per warp in one pass); the pipelined kernel
/// needs THREE (its widest sweep combines three results). Pass this to
/// Sanitizer::set_shared_limit for bounds checking.
size_type traced_shared_bytes(const StorageConfig& config, int num_warps,
                              int scratch_slots_per_warp = 2);

/// Bytes of the per-system convergence log record the traced solver
/// writes back on exit: {iterations, residual_norm, failure class}, one
/// 8-byte word each.
inline constexpr std::uint64_t log_record_bytes = 24;

/// Registers the global regions of `map` with `sanitizer` for
/// out-of-bounds checking: the sparsity pattern (`row_ptrs` only when
/// `csr_pattern`), per-system values, the right-hand side, the spilled
/// solver vectors, and the per-system log record.
void register_map_buffers(Sanitizer& sanitizer, const AddressMap& map,
                          index_type rows, index_type nnz_stored,
                          bool csr_pattern, int num_spill_vectors);

/// Warp-per-row CSR SpMV (Fig. 5a): each row is read by one warp with
/// lanes covering its nonzeros, followed by a warp shuffle reduction.
void trace_spmv_csr(BlockTracer& tracer, const AddressMap& map,
                    const std::vector<index_type>& row_ptrs,
                    const std::vector<index_type>& col_idxs,
                    std::uint64_t x_base, std::uint64_t y_base);

/// Thread-per-row ELL SpMV (Fig. 5b): lane r handles row r; the slot loop
/// walks the column-major value/index arrays with fully coalesced accesses.
void trace_spmv_ell(BlockTracer& tracer, const AddressMap& map,
                    index_type rows, index_type nnz_per_row,
                    const std::vector<index_type>& ell_col_idxs,
                    std::uint64_t x_base, std::uint64_t y_base);

/// Block-wide dot product / norm over vectors of length n (pass the same
/// base twice for a norm). `scratch_base` is the shared byte offset of the
/// cross-warp reduction scratch (one real per warp): per-warp partials are
/// stored there, a barrier orders them, warp 0 combines and publishes the
/// result, and a final barrier protects the scratch before reuse.
void trace_dot(BlockTracer& tracer, index_type n, std::uint64_t a_base,
               std::uint64_t b_base,
               std::uint64_t scratch_base = shared_space);

/// Fused dual reduction: one sweep computes x.y1 and x.y2 (each distinct
/// operand is read once). Warp w publishes its two partials at scratch
/// slots 2w and 2w+1 -- the scratch must hold 2 * num_warps reals (see
/// traced_shared_bytes).
void trace_dot2(BlockTracer& tracer, index_type n, std::uint64_t x_base,
                std::uint64_t y1_base, std::uint64_t y2_base,
                std::uint64_t scratch_base = shared_space);

/// Streaming vector update reading the vectors in `read_bases` and writing
/// `out_base` (e.g. axpy = 2 reads incl. the output's old value, 1 write).
void trace_axpy(BlockTracer& tracer, index_type n,
                const std::vector<std::uint64_t>& read_bases,
                std::uint64_t out_base);

/// Fused update + norm: the trace_axpy sweep with the squared norm of the
/// written value accumulated in registers, followed by the cross-warp
/// reduction combine. One sweep of traffic instead of two.
void trace_axpy_nrm2(BlockTracer& tracer, index_type n,
                     const std::vector<std::uint64_t>& read_bases,
                     std::uint64_t out_base,
                     std::uint64_t scratch_base = shared_space);

/// Warp-per-row CSR SpMV with reductions fused into the sweep: alongside
/// y = A x the kernel accumulates, per row, the products of the freshly
/// produced y element (still in registers) against each vector in
/// `dot_bases` -- plus y's own square when `self_dot` -- and finishes with
/// ONE cross-warp combine publishing all results instead of the plain
/// kernel's trailing barrier. This is the pipelined solver's key move: a
/// dot fused into the sweep that PRODUCES its operand costs only the
/// other operand's row reads.
void trace_spmv_csr_dots(BlockTracer& tracer, const AddressMap& map,
                         const std::vector<index_type>& row_ptrs,
                         const std::vector<index_type>& col_idxs,
                         std::uint64_t x_base, std::uint64_t y_base,
                         bool self_dot,
                         const std::vector<std::uint64_t>& dot_bases,
                         std::uint64_t scratch_base = shared_space);

/// Thread-per-row ELL SpMV with fused reductions; see trace_spmv_csr_dots.
void trace_spmv_ell_dots(BlockTracer& tracer, const AddressMap& map,
                         index_type rows, index_type nnz_per_row,
                         const std::vector<index_type>& ell_col_idxs,
                         std::uint64_t x_base, std::uint64_t y_base,
                         bool self_dot,
                         const std::vector<std::uint64_t>& dot_bases,
                         std::uint64_t scratch_base = shared_space);

/// Fused update + norm + dot: the trace_axpy sweep with the squared norm
/// of the written value AND its product against `dot_base` accumulated in
/// registers, closed by one combine round publishing both results (the
/// pipelined s-update: s, ||s||, and s.r_hat in one sweep).
void trace_axpy_nrm2_dot(BlockTracer& tracer, index_type n,
                         const std::vector<std::uint64_t>& read_bases,
                         std::uint64_t out_base, std::uint64_t dot_base,
                         std::uint64_t scratch_base = shared_space);

/// Which SpMV kernel a traced solve uses.
enum class TracedFormat { csr, ell };

/// Full fused BiCGStab solve of one system: setup plus `iterations`
/// iterations of Algorithm 1, with vector placements taken from `config`
/// (slot names as produced by bicgstab_slots()). Appends into the tracer.
void trace_bicgstab(BlockTracer& tracer, const AddressMap& map,
                    TracedFormat format,
                    const std::vector<index_type>& row_ptrs,
                    const std::vector<index_type>& csr_col_idxs,
                    const std::vector<index_type>& ell_col_idxs,
                    index_type rows, index_type nnz_per_row, int iterations,
                    const StorageConfig& config);

/// Pipelined fused BiCGStab solve of one system (the traced twin of
/// bicgstab_kernel<true>): the standalone rho reduction disappears
/// into the recurrence, r_hat.v fuses into the SpMV that produces v, the
/// omega/rho reductions fuse into the SpMV that produces t (a three-result
/// combine), and the r update runs as a pure streaming sweep. 14 block
/// barriers per iteration versus the classic kernel's 21. Needs THREE
/// reduction scratch slots per warp (traced_shared_bytes(..., 3)).
void trace_pipelined_bicgstab(BlockTracer& tracer, const AddressMap& map,
                              TracedFormat format,
                              const std::vector<index_type>& row_ptrs,
                              const std::vector<index_type>& csr_col_idxs,
                              const std::vector<index_type>& ell_col_idxs,
                              index_type rows, index_type nnz_per_row,
                              int iterations, const StorageConfig& config);

}  // namespace bsis::gpusim
