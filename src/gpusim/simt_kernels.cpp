#include "gpusim/simt_kernels.hpp"

#include <algorithm>

#include "matrix/batch_ell.hpp"
#include "util/error.hpp"

namespace bsis::gpusim {

namespace {

/// Region bases of the virtual address space. Pattern regions are shared
/// by all systems; value/vector regions are strided per system. Each base
/// carries a distinct non-power-of-two offset so the regions do not alias
/// onto the same cache sets (power-of-two bases would all index set 0).
constexpr std::uint64_t region_col_idxs = (std::uint64_t{1} << 32) + 0x1480;
constexpr std::uint64_t region_row_ptrs = (std::uint64_t{2} << 32) + 0x3900;
constexpr std::uint64_t region_values = (std::uint64_t{4} << 32) + 0x6c80;
constexpr std::uint64_t region_b = (std::uint64_t{8} << 32) + 0x9e00;
constexpr std::uint64_t region_spill = (std::uint64_t{16} << 32) + 0xd580;
constexpr std::uint64_t region_log = (std::uint64_t{32} << 32) + 0x10e00;

std::uint64_t round_up(std::uint64_t x, std::uint64_t align)
{
    return (x + align - 1) / align * align;
}

}  // namespace

AddressMap AddressMap::for_system(size_type system_index, index_type rows,
                                  index_type nnz_stored,
                                  int num_spill_vectors)
{
    const auto sys = static_cast<std::uint64_t>(system_index);
    AddressMap map;
    map.rows = rows;
    map.col_idxs = region_col_idxs;
    map.row_ptrs = region_row_ptrs;
    map.values =
        region_values +
        sys * round_up(static_cast<std::uint64_t>(nnz_stored) *
                           sizeof(real_type),
                       256);
    map.b = region_b +
            sys * round_up(
                      static_cast<std::uint64_t>(rows) * sizeof(real_type),
                      256);
    map.spill =
        region_spill +
        sys * round_up(static_cast<std::uint64_t>(
                           std::max(num_spill_vectors, 1)) *
                           rows * sizeof(real_type),
                       256);
    map.log = region_log + sys * round_up(log_record_bytes, 256);
    return map;
}

size_type traced_shared_bytes(const StorageConfig& config, int num_warps,
                              int scratch_slots_per_warp)
{
    // Per-warp scratch slots for the cross-warp combines: the classic
    // fused dual-dot publishes two partials per warp in one pass, the
    // pipelined three-result sweep publishes three.
    return config.shared_bytes +
           static_cast<size_type>(num_warps) *
               static_cast<size_type>(scratch_slots_per_warp) *
               static_cast<size_type>(sizeof(real_type));
}

void register_map_buffers(Sanitizer& sanitizer, const AddressMap& map,
                          index_type rows, index_type nnz_stored,
                          bool csr_pattern, int num_spill_vectors)
{
    const auto ib = static_cast<size_type>(sizeof(index_type));
    const auto vb = static_cast<size_type>(sizeof(real_type));
    sanitizer.register_buffer("col_idxs", map.col_idxs,
                              static_cast<size_type>(nnz_stored) * ib);
    if (csr_pattern) {
        sanitizer.register_buffer(
            "row_ptrs", map.row_ptrs,
            (static_cast<size_type>(rows) + 1) * ib);
    }
    sanitizer.register_buffer("values", map.values,
                              static_cast<size_type>(nnz_stored) * vb);
    sanitizer.register_buffer("b", map.b,
                              static_cast<size_type>(rows) * vb);
    if (num_spill_vectors > 0) {
        sanitizer.register_buffer(
            "spill", map.spill,
            static_cast<size_type>(num_spill_vectors) * rows * vb);
    }
    sanitizer.register_buffer("log", map.log,
                              static_cast<size_type>(log_record_bytes));
}

namespace {

/// One coalesced warp access to `active` consecutive elements starting at
/// element index `first` of an array at `base`.
void contiguous_access(BlockTracer& tracer, std::uint64_t base,
                       index_type first, int active, int elem_bytes,
                       bool store, std::vector<std::uint64_t>& scratch)
{
    scratch.clear();
    for (int lane = 0; lane < active; ++lane) {
        scratch.push_back(base + static_cast<std::uint64_t>(first + lane) *
                                     static_cast<std::uint64_t>(elem_bytes));
    }
    if (store) {
        tracer.store_global(scratch, elem_bytes);
    } else {
        tracer.load_global(scratch, elem_bytes);
    }
}

/// Same, but for a vector living in shared memory (base = byte offset).
void shared_contiguous(BlockTracer& tracer, std::uint64_t base,
                       index_type first, int active, bool store,
                       std::vector<std::uint64_t>& scratch)
{
    scratch.clear();
    for (int lane = 0; lane < active; ++lane) {
        scratch.push_back(base + static_cast<std::uint64_t>(first + lane) *
                                     sizeof(real_type));
    }
    if (store) {
        tracer.store_shared(scratch, sizeof(real_type));
    } else {
        tracer.load_shared(scratch, sizeof(real_type));
    }
}

/// Reads vector elements [first, first+active) from shared or global.
void vec_read(BlockTracer& tracer, std::uint64_t base, index_type first,
              int active, std::vector<std::uint64_t>& scratch)
{
    if (is_shared_addr(base)) {
        shared_contiguous(tracer, base, first, active, false, scratch);
    } else {
        contiguous_access(tracer, base, first, active, sizeof(real_type),
                          false, scratch);
    }
}

void vec_write(BlockTracer& tracer, std::uint64_t base, index_type first,
               int active, std::vector<std::uint64_t>& scratch)
{
    if (is_shared_addr(base)) {
        shared_contiguous(tracer, base, first, active, true, scratch);
    } else {
        contiguous_access(tracer, base, first, active, sizeof(real_type),
                          true, scratch);
    }
}

/// Gathers x[col] for the given column indices (SpMV right operand).
void gather_x(BlockTracer& tracer, std::uint64_t x_base,
              const index_type* cols, int active,
              std::vector<std::uint64_t>& lane_addrs)
{
    lane_addrs.clear();
    for (int lane = 0; lane < active; ++lane) {
        lane_addrs.push_back(x_base +
                             static_cast<std::uint64_t>(cols[lane]) *
                                 sizeof(real_type));
    }
    if (is_shared_addr(x_base)) {
        tracer.load_shared(lane_addrs, sizeof(real_type));
    } else {
        tracer.load_global(lane_addrs, sizeof(real_type));
    }
}

/// Warp shuffle reduction over `count` values: stages halve the live
/// values; each stage is one warp instruction with that many active lanes.
void warp_reduce(BlockTracer& tracer, int count)
{
    while (count > 1) {
        const int half = (count + 1) / 2;
        tracer.flop(half);
        count = half;
    }
}

/// Cross-warp combine of `num_results` per-warp reduction partials: warp
/// w's partial for result j lives at scratch slot w * num_results + j.
/// Partials are published, a barrier orders them, warp 0 combines each
/// result and publishes it to the first `num_results` scratch slots, a
/// barrier makes them visible, every thread broadcast-reads them, and a
/// final barrier protects the scratch before reuse.
void cross_warp_combine(BlockTracer& tracer, std::uint64_t scratch_base,
                        int num_results)
{
    const int warp = tracer.warp_size();
    const int warps = tracer.num_warps();
    std::vector<std::uint64_t> addrs;
    const auto slot = [&](int w, int j) {
        return scratch_base +
               static_cast<std::uint64_t>(w * num_results + j) *
                   sizeof(real_type);
    };
    // The leading lanes of each warp publish its partials.
    for (int w = 0; w < warps; ++w) {
        tracer.set_warp(w);
        addrs.clear();
        for (int j = 0; j < num_results; ++j) {
            addrs.push_back(slot(w, j));
        }
        tracer.store_shared(addrs, sizeof(real_type));
    }
    tracer.barrier();  // partials must be visible before the combine
    // Warp 0 combines each result's partials and publishes the results.
    tracer.set_warp(0);
    for (int j = 0; j < num_results; ++j) {
        addrs.clear();
        for (int w = 0; w < warps; ++w) {
            addrs.push_back(slot(w, j));
        }
        tracer.load_shared(addrs, sizeof(real_type));
        warp_reduce(tracer, warps);
    }
    addrs.clear();
    for (int j = 0; j < num_results; ++j) {
        addrs.push_back(slot(0, j));
    }
    tracer.store_shared(addrs, sizeof(real_type));
    tracer.barrier();  // results must be visible to every warp
    // Every thread reads the results back: full-warp broadcast loads (LDS
    // broadcasts same-address lanes in one cycle).
    for (int j = 0; j < num_results; ++j) {
        addrs.assign(static_cast<std::size_t>(warp), slot(0, j));
        for (int w = 0; w < warps; ++w) {
            tracer.set_warp(w);
            tracer.load_shared(addrs, sizeof(real_type));
        }
    }
    tracer.barrier();  // scratch may be reused after this point
}

/// Common CSR SpMV trace body. With fused reductions (`self_dot` or
/// non-empty `dot_bases`) each row's write is followed by the per-row
/// reduction reads/flops and the kernel closes with one cross-warp
/// combine; otherwise with the plain trailing barrier.
void spmv_csr_core(BlockTracer& tracer, const AddressMap& map,
                   const std::vector<index_type>& row_ptrs,
                   const std::vector<index_type>& col_idxs,
                   std::uint64_t x_base, std::uint64_t y_base,
                   bool self_dot,
                   const std::vector<std::uint64_t>& dot_bases,
                   std::uint64_t scratch_base)
{
    const auto rows = static_cast<index_type>(row_ptrs.size()) - 1;
    const int warp = tracer.warp_size();
    const int warps = tracer.num_warps();
    const int num_results =
        (self_dot ? 1 : 0) + static_cast<int>(dot_bases.size());
    std::vector<std::uint64_t> scratch;
    std::vector<std::uint64_t> gather;

    // Warp w handles rows w, w + warps, ... (one warp per row).
    for (index_type r = 0; r < rows; ++r) {
        tracer.set_warp(static_cast<int>(r % warps));
        // Row extent loaded by the warp leader.
        contiguous_access(tracer, map.row_ptrs, r, 2, sizeof(index_type),
                          false, scratch);
        const index_type begin = row_ptrs[r];
        const index_type nnz = row_ptrs[r + 1] - begin;
        for (index_type k0 = 0; k0 < nnz; k0 += warp) {
            const int active =
                static_cast<int>(std::min<index_type>(warp, nnz - k0));
            contiguous_access(tracer, map.col_idxs, begin + k0, active,
                              sizeof(index_type), false, scratch);
            contiguous_access(tracer, map.values, begin + k0, active,
                              sizeof(real_type), false, scratch);
            gather_x(tracer, x_base, col_idxs.data() + begin + k0, active,
                     gather);
            tracer.flop(active, 2);  // fused multiply-add per lane
        }
        // Fused cross-dots ride the per-lane partials BEFORE the row
        // reduce: y_r * w[r] = sum_lanes(partial * w[r]), so the row's
        // active lanes broadcast-load w[r] and fma it onto their own dot
        // accumulators -- same lane activity as the SpMV fma itself, and
        // the per-lane accumulators reduce only once at the very end.
        const int red_active = static_cast<int>(std::min<index_type>(
            warp, std::max<index_type>(nnz, 1)));
        for (const auto base : dot_bases) {
            scratch.assign(static_cast<std::size_t>(red_active),
                           base + static_cast<std::uint64_t>(r) *
                                      sizeof(real_type));
            if (is_shared_addr(base)) {
                tracer.load_shared(scratch, sizeof(real_type));
            } else {
                tracer.load_global(scratch, sizeof(real_type));
            }
            tracer.flop(red_active, 2);
        }
        warp_reduce(tracer, red_active);
        vec_write(tracer, y_base, r, 1, scratch);
        // The self-dot needs the reduced row value: the leader squares it
        // onto its accumulator (registers only, no load).
        if (self_dot) {
            tracer.flop(1, 2);
        }
    }
    if (num_results == 0) {
        tracer.barrier();
        return;
    }
    // Cross-dot accumulators are per-lane; the self-dot already lives in
    // a single lane per warp and goes straight to the combine.
    for (std::size_t j = 0; j < dot_bases.size(); ++j) {
        warp_reduce(tracer, warp);
    }
    cross_warp_combine(tracer, scratch_base, num_results);
}

/// Common ELL SpMV trace body; see spmv_csr_core for the fused-reduction
/// tail.
void spmv_ell_core(BlockTracer& tracer, const AddressMap& map,
                   index_type rows, index_type nnz_per_row,
                   const std::vector<index_type>& ell_col_idxs,
                   std::uint64_t x_base, std::uint64_t y_base,
                   bool self_dot,
                   const std::vector<std::uint64_t>& dot_bases,
                   std::uint64_t scratch_base)
{
    const int warp = tracer.warp_size();
    const int warps = tracer.num_warps();
    const int num_results =
        (self_dot ? 1 : 0) + static_cast<int>(dot_bases.size());
    std::vector<std::uint64_t> scratch;
    std::vector<std::uint64_t> gather;
    std::vector<index_type> cols(static_cast<std::size_t>(warp));

    // Lane r accumulates row r; the slot loop is the outer loop so
    // consecutive lanes read consecutive memory (column-major layout).
    for (index_type k = 0; k < nnz_per_row; ++k) {
        for (index_type r0 = 0; r0 < rows; r0 += warp) {
            tracer.set_warp(static_cast<int>((r0 / warp) % warps));
            const int active =
                static_cast<int>(std::min<index_type>(warp, rows - r0));
            const index_type slot_first = k * rows + r0;
            contiguous_access(tracer, map.col_idxs, slot_first, active,
                              sizeof(index_type), false, scratch);
            contiguous_access(tracer, map.values, slot_first, active,
                              sizeof(real_type), false, scratch);
            int live = 0;
            for (int lane = 0; lane < active; ++lane) {
                const index_type c =
                    ell_col_idxs[static_cast<std::size_t>(slot_first) +
                                 lane];
                if (c != ell_padding) {
                    cols[static_cast<std::size_t>(live++)] = c;
                }
            }
            if (live > 0) {
                gather_x(tracer, x_base, cols.data(), live, gather);
                tracer.flop(live, 2);
            }
        }
    }
    for (index_type r0 = 0; r0 < rows; r0 += warp) {
        tracer.set_warp(static_cast<int>((r0 / warp) % warps));
        const int active =
            static_cast<int>(std::min<index_type>(warp, rows - r0));
        vec_write(tracer, y_base, r0, active, scratch);
        // Fused reductions on the freshly produced values (see
        // spmv_csr_core), coalesced across the chunk's lanes.
        if (self_dot) {
            tracer.flop(active, 2);
        }
        for (const auto base : dot_bases) {
            vec_read(tracer, base, r0, active, scratch);
            tracer.flop(active, 2);
        }
    }
    if (num_results == 0) {
        tracer.barrier();
        return;
    }
    for (int j = 0; j < num_results; ++j) {
        warp_reduce(tracer, warp);
    }
    cross_warp_combine(tracer, scratch_base, num_results);
}

}  // namespace

void trace_spmv_csr(BlockTracer& tracer, const AddressMap& map,
                    const std::vector<index_type>& row_ptrs,
                    const std::vector<index_type>& col_idxs,
                    std::uint64_t x_base, std::uint64_t y_base)
{
    tracer.set_kernel("spmv_csr");
    spmv_csr_core(tracer, map, row_ptrs, col_idxs, x_base, y_base, false,
                  {}, shared_space);
}

void trace_spmv_csr_dots(BlockTracer& tracer, const AddressMap& map,
                         const std::vector<index_type>& row_ptrs,
                         const std::vector<index_type>& col_idxs,
                         std::uint64_t x_base, std::uint64_t y_base,
                         bool self_dot,
                         const std::vector<std::uint64_t>& dot_bases,
                         std::uint64_t scratch_base)
{
    tracer.set_kernel("spmv_csr_dots");
    spmv_csr_core(tracer, map, row_ptrs, col_idxs, x_base, y_base,
                  self_dot, dot_bases, scratch_base);
}

void trace_spmv_ell(BlockTracer& tracer, const AddressMap& map,
                    index_type rows, index_type nnz_per_row,
                    const std::vector<index_type>& ell_col_idxs,
                    std::uint64_t x_base, std::uint64_t y_base)
{
    tracer.set_kernel("spmv_ell");
    spmv_ell_core(tracer, map, rows, nnz_per_row, ell_col_idxs, x_base,
                  y_base, false, {}, shared_space);
}

void trace_spmv_ell_dots(BlockTracer& tracer, const AddressMap& map,
                         index_type rows, index_type nnz_per_row,
                         const std::vector<index_type>& ell_col_idxs,
                         std::uint64_t x_base, std::uint64_t y_base,
                         bool self_dot,
                         const std::vector<std::uint64_t>& dot_bases,
                         std::uint64_t scratch_base)
{
    tracer.set_kernel("spmv_ell_dots");
    spmv_ell_core(tracer, map, rows, nnz_per_row, ell_col_idxs, x_base,
                  y_base, self_dot, dot_bases, scratch_base);
}

void trace_dot(BlockTracer& tracer, index_type n, std::uint64_t a_base,
               std::uint64_t b_base, std::uint64_t scratch_base)
{
    tracer.set_kernel("dot");
    const int warp = tracer.warp_size();
    const int warps = tracer.num_warps();
    std::vector<std::uint64_t> scratch;
    // Grid-stride accumulation into per-lane partials.
    for (index_type i0 = 0; i0 < n; i0 += warp) {
        tracer.set_warp(static_cast<int>((i0 / warp) % warps));
        const int active =
            static_cast<int>(std::min<index_type>(warp, n - i0));
        vec_read(tracer, a_base, i0, active, scratch);
        if (b_base != a_base) {
            vec_read(tracer, b_base, i0, active, scratch);
        }
        tracer.flop(active, 2);
    }
    // Per-warp shuffle tree (all warps run it concurrently; issued once).
    warp_reduce(tracer, warp);
    cross_warp_combine(tracer, scratch_base, 1);
}

void trace_dot2(BlockTracer& tracer, index_type n, std::uint64_t x_base,
                std::uint64_t y1_base, std::uint64_t y2_base,
                std::uint64_t scratch_base)
{
    tracer.set_kernel("dot2");
    const int warp = tracer.warp_size();
    const int warps = tracer.num_warps();
    std::vector<std::uint64_t> scratch;
    // One grid-stride sweep feeds BOTH per-lane partials: each distinct
    // operand is read once, then two fused multiply-adds accumulate
    // x*y1 and x*y2.
    for (index_type i0 = 0; i0 < n; i0 += warp) {
        tracer.set_warp(static_cast<int>((i0 / warp) % warps));
        const int active =
            static_cast<int>(std::min<index_type>(warp, n - i0));
        vec_read(tracer, x_base, i0, active, scratch);
        if (y1_base != x_base) {
            vec_read(tracer, y1_base, i0, active, scratch);
        }
        if (y2_base != x_base && y2_base != y1_base) {
            vec_read(tracer, y2_base, i0, active, scratch);
        }
        tracer.flop(active, 2);
        tracer.flop(active, 2);
    }
    // Per-warp shuffle trees for the two partials, then one combine round
    // publishing both results.
    warp_reduce(tracer, warp);
    warp_reduce(tracer, warp);
    cross_warp_combine(tracer, scratch_base, 2);
}

void trace_axpy_nrm2(BlockTracer& tracer, index_type n,
                     const std::vector<std::uint64_t>& read_bases,
                     std::uint64_t out_base, std::uint64_t scratch_base)
{
    tracer.set_kernel("axpy_nrm2");
    const int warp = tracer.warp_size();
    const int warps = tracer.num_warps();
    std::vector<std::uint64_t> scratch;
    // Streaming update sweep that also accumulates the squared norm of the
    // value it writes -- the written element is still in registers, so the
    // norm costs no extra memory traffic.
    for (index_type i0 = 0; i0 < n; i0 += warp) {
        tracer.set_warp(static_cast<int>((i0 / warp) % warps));
        const int active =
            static_cast<int>(std::min<index_type>(warp, n - i0));
        for (const auto base : read_bases) {
            vec_read(tracer, base, i0, active, scratch);
        }
        tracer.flop(active, 2);  // the update
        vec_write(tracer, out_base, i0, active, scratch);
        tracer.flop(active, 2);  // norm accumulation of the written value
    }
    warp_reduce(tracer, warp);
    cross_warp_combine(tracer, scratch_base, 1);
}

void trace_axpy_nrm2_dot(BlockTracer& tracer, index_type n,
                         const std::vector<std::uint64_t>& read_bases,
                         std::uint64_t out_base, std::uint64_t dot_base,
                         std::uint64_t scratch_base)
{
    tracer.set_kernel("axpy_nrm2_dot");
    const int warp = tracer.warp_size();
    const int warps = tracer.num_warps();
    std::vector<std::uint64_t> scratch;
    // Streaming update sweep accumulating BOTH the squared norm of the
    // written value and its product against `dot_base`: the written
    // element is in registers, so the two reductions cost one extra
    // operand read and two fmas.
    for (index_type i0 = 0; i0 < n; i0 += warp) {
        tracer.set_warp(static_cast<int>((i0 / warp) % warps));
        const int active =
            static_cast<int>(std::min<index_type>(warp, n - i0));
        for (const auto base : read_bases) {
            vec_read(tracer, base, i0, active, scratch);
        }
        tracer.flop(active, 2);  // the update
        vec_write(tracer, out_base, i0, active, scratch);
        tracer.flop(active, 2);  // norm accumulation
        vec_read(tracer, dot_base, i0, active, scratch);
        tracer.flop(active, 2);  // dot accumulation
    }
    warp_reduce(tracer, warp);
    warp_reduce(tracer, warp);
    cross_warp_combine(tracer, scratch_base, 2);
}

void trace_axpy(BlockTracer& tracer, index_type n,
                const std::vector<std::uint64_t>& read_bases,
                std::uint64_t out_base)
{
    tracer.set_kernel("axpy");
    const int warp = tracer.warp_size();
    const int warps = tracer.num_warps();
    std::vector<std::uint64_t> scratch;
    for (index_type i0 = 0; i0 < n; i0 += warp) {
        tracer.set_warp(static_cast<int>((i0 / warp) % warps));
        const int active =
            static_cast<int>(std::min<index_type>(warp, n - i0));
        for (const auto base : read_bases) {
            vec_read(tracer, base, i0, active, scratch);
        }
        tracer.flop(active, 2);
        vec_write(tracer, out_base, i0, active, scratch);
    }
    tracer.barrier();
}

namespace {

/// Solver vector addresses resolved from a storage config: each slot's
/// shared-memory offset or spilled global region, in slot order. Shared
/// vector i sits at byte offset i * padded_length * sizeof(real_type);
/// the cross-warp reduction scratch follows the last shared vector.
struct BicgstabSlots {
    std::uint64_t p_hat, v, s_hat, t, r, r_hat, p, s, x;
    std::uint64_t inv_diag;
    std::uint64_t reduce_scratch;
    bool has_jacobi;
};

BicgstabSlots resolve_bicgstab_slots(const AddressMap& map,
                                     const StorageConfig& config)
{
    BSIS_ENSURE_ARG(!config.slots.empty(), "storage config not built");
    const auto vector_bytes =
        static_cast<std::uint64_t>(config.padded_length) *
        sizeof(real_type);
    std::vector<std::uint64_t> base(config.slots.size());
    int spill = 0;
    for (std::size_t i = 0; i < config.slots.size(); ++i) {
        base[i] =
            config.slots[i].space == MemSpace::shared
                ? static_cast<std::uint64_t>(
                      config.shared_slot_index(config.slots[i].name)) *
                      vector_bytes
                : map.spill_vec(spill++);
    }
    const auto vec = [&](const char* name) {
        for (std::size_t i = 0; i < config.slots.size(); ++i) {
            if (config.slots[i].name == name) {
                return base[i];
            }
        }
        throw BadArgument("trace_bicgstab",
                          std::string("unknown slot ") + name);
    };
    BicgstabSlots s{};
    s.p_hat = vec("p_hat");
    s.v = vec("v");
    s.s_hat = vec("s_hat");
    s.t = vec("t");
    s.r = vec("r");
    s.r_hat = vec("r_hat");
    s.p = vec("p");
    s.s = vec("s");
    s.x = vec("x");
    s.has_jacobi = config.slots.back().cls == SlotClass::precond;
    s.inv_diag = s.has_jacobi ? base.back() : shared_space;
    s.reduce_scratch =
        static_cast<std::uint64_t>(config.num_shared) * vector_bytes;
    return s;
}

/// Exit write-back of the per-system log record: lane 0 stores
/// {iterations, residual_norm, failure class} -- the same taxonomy the
/// host-side kernels classify -- as three 8-byte words. This is what a
/// real GPU kernel must emit for the flight recorder to work off-device.
void trace_log_writeback(BlockTracer& tracer, const AddressMap& map)
{
    tracer.instr(1);
    tracer.store_global({map.log}, 8);
    tracer.store_global({map.log + 8}, 8);
    tracer.store_global({map.log + 16}, 8);
}

}  // namespace

void trace_bicgstab(BlockTracer& tracer, const AddressMap& map,
                    TracedFormat format,
                    const std::vector<index_type>& row_ptrs,
                    const std::vector<index_type>& csr_col_idxs,
                    const std::vector<index_type>& ell_col_idxs,
                    index_type rows, index_type nnz_per_row, int iterations,
                    const StorageConfig& config)
{
    tracer.set_kernel("bicgstab");
    const auto slots = resolve_bicgstab_slots(map, config);
    const auto p_hat = slots.p_hat;
    const auto v = slots.v;
    const auto s_hat = slots.s_hat;
    const auto t = slots.t;
    const auto r = slots.r;
    const auto r_hat = slots.r_hat;
    const auto p = slots.p;
    const auto s = slots.s;
    const auto x = slots.x;
    const bool has_jacobi = slots.has_jacobi;
    const std::uint64_t inv_diag = slots.inv_diag;
    const std::uint64_t reduce_scratch = slots.reduce_scratch;

    const auto spmv = [&](std::uint64_t in, std::uint64_t out) {
        if (format == TracedFormat::csr) {
            trace_spmv_csr(tracer, map, row_ptrs, csr_col_idxs, in, out);
        } else {
            trace_spmv_ell(tracer, map, rows, nnz_per_row, ell_col_idxs, in,
                           out);
        }
    };
    const auto precond = [&](std::uint64_t in, std::uint64_t out) {
        if (has_jacobi) {
            trace_axpy(tracer, rows, {inv_diag, in}, out);
        } else {
            trace_axpy(tracer, rows, {in}, out);
        }
    };
    const auto dot = [&](std::uint64_t a, std::uint64_t b) {
        trace_dot(tracer, rows, a, b, reduce_scratch);
    };

    // Setup: Jacobi generation (diagonal gather + invert), r = b - A x
    // with the initial norm fused into the update sweep, r_hat = r.
    if (has_jacobi) {
        trace_axpy(tracer, rows, {map.values}, inv_diag);
    }
    spmv(x, t);
    trace_axpy_nrm2(tracer, rows, {map.b, t}, r, reduce_scratch);
    trace_axpy(tracer, rows, {r}, r_hat);

    // Fused iteration: the paper's single-pass update kernels. ||s|| and
    // ||r|| ride on the s and r update sweeps; t.s and t.t share one
    // dual-dot sweep.
    for (int it = 0; it < iterations; ++it) {
        dot(r, r_hat);                            // rho
        trace_axpy(tracer, rows, {r, p, v}, p);   // p update
        precond(p, p_hat);
        spmv(p_hat, v);
        dot(r_hat, v);                            // alpha denominator
        trace_axpy_nrm2(tracer, rows, {r, v}, s,  // s = r - alpha v, ||s||
                        reduce_scratch);
        precond(s, s_hat);
        spmv(s_hat, t);
        trace_dot2(tracer, rows, t, t, s,         // omega num. + denom.
                   reduce_scratch);
        trace_axpy(tracer, rows, {x, p_hat, s_hat}, x);
        trace_axpy_nrm2(tracer, rows, {s, t}, r,  // r update, ||r||
                        reduce_scratch);
    }

    trace_log_writeback(tracer, map);
}

void trace_pipelined_bicgstab(BlockTracer& tracer, const AddressMap& map,
                              TracedFormat format,
                              const std::vector<index_type>& row_ptrs,
                              const std::vector<index_type>& csr_col_idxs,
                              const std::vector<index_type>& ell_col_idxs,
                              index_type rows, index_type nnz_per_row,
                              int iterations, const StorageConfig& config)
{
    tracer.set_kernel("pipelined_bicgstab");
    const auto slots = resolve_bicgstab_slots(map, config);
    const auto p_hat = slots.p_hat;
    const auto v = slots.v;
    const auto s_hat = slots.s_hat;
    const auto t = slots.t;
    const auto r = slots.r;
    const auto r_hat = slots.r_hat;
    const auto p = slots.p;
    const auto s = slots.s;
    const auto x = slots.x;
    const bool has_jacobi = slots.has_jacobi;
    const std::uint64_t inv_diag = slots.inv_diag;
    const std::uint64_t reduce_scratch = slots.reduce_scratch;

    const auto spmv_dots = [&](std::uint64_t in, std::uint64_t out,
                               bool self_dot,
                               const std::vector<std::uint64_t>& dots) {
        if (format == TracedFormat::csr) {
            trace_spmv_csr_dots(tracer, map, row_ptrs, csr_col_idxs, in,
                                out, self_dot, dots, reduce_scratch);
        } else {
            trace_spmv_ell_dots(tracer, map, rows, nnz_per_row,
                                ell_col_idxs, in, out, self_dot, dots,
                                reduce_scratch);
        }
    };
    const auto precond = [&](std::uint64_t in, std::uint64_t out) {
        if (has_jacobi) {
            trace_axpy(tracer, rows, {inv_diag, in}, out);
        } else {
            trace_axpy(tracer, rows, {in}, out);
        }
    };

    // Setup matches the classic kernel plus the initial rho = r.r_hat
    // (afterwards rho lives in the recurrence).
    if (has_jacobi) {
        trace_axpy(tracer, rows, {map.values}, inv_diag);
    }
    spmv_dots(x, t, false, {});
    trace_axpy_nrm2(tracer, rows, {map.b, t}, r, reduce_scratch);
    trace_axpy(tracer, rows, {r}, r_hat);
    trace_dot(tracer, rows, r, r_hat, reduce_scratch);

    // Pipelined iteration: no standalone rho reduction (recurrence);
    // r_hat.v rides the SpMV producing v; ||s|| and s.r_hat ride the s
    // update; t.t / t.s / t.r_hat ride the SpMV producing t in ONE
    // three-result combine; the x and r updates stream with no reduction
    // at all (||r|| comes from the recurrence). 14 block barriers per
    // iteration versus the classic kernel's 21.
    for (int it = 0; it < iterations; ++it) {
        trace_axpy(tracer, rows, {r, p, v}, p);       // p update
        precond(p, p_hat);
        spmv_dots(p_hat, v, false, {r_hat});          // v = A p_hat, r_hat.v
        trace_axpy_nrm2_dot(tracer, rows, {r, v}, s,  // s, ||s||, s.r_hat
                            r_hat, reduce_scratch);
        precond(s, s_hat);
        spmv_dots(s_hat, t, true, {s, r_hat});        // t, t.t, t.s, t.r_hat
        trace_axpy(tracer, rows, {x, p_hat, s_hat}, x);
        trace_axpy(tracer, rows, {s, t}, r);          // pure streaming sweep
    }

    trace_log_writeback(tracer, map);
}

}  // namespace bsis::gpusim
