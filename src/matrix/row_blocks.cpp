#include "matrix/row_blocks.hpp"

#include <algorithm>
#include <utility>

namespace bsis {

namespace {

constexpr index_type block_rows = RowBlockPattern::rows_per_block;

/// Builds the blocks of `rows` rows in which row r has width(r) slots and
/// slot(r, k) = {column, source position}, position -1 for padding. A
/// block has as many slots as its widest row. The layout is packed: slot s
/// of the pattern keeps its values at 8 s of a strip.
template <typename Width, typename Slot>
RowBlockPattern make_blocks(index_type rows, Width&& width, Slot&& slot)
{
    RowBlockPattern p;
    p.rows = rows;
    p.slot_ptrs.assign(1, 0);
    for (index_type r0 = 0; r0 < rows; r0 += block_rows) {
        const index_type r1 = std::min(r0 + block_rows, rows);
        index_type slots = 0;
        for (index_type r = r0; r < r1; ++r) {
            slots = std::max(slots, width(r));
        }
        p.value_base.push_back(p.slot_ptrs.back() * block_rows);
        for (index_type k = 0; k < slots; ++k) {
            std::uint8_t mask = 0;
            for (index_type j = 0; j < block_rows; ++j) {
                const index_type r = r0 + j;
                std::pair<index_type, index_type> cp{0, -1};
                if (r < r1 && k < width(r)) {
                    cp = slot(r, k);
                }
                if (cp.second >= 0) {
                    mask |= static_cast<std::uint8_t>(1u << j);
                }
                p.col_idxs.push_back(cp.second >= 0 ? cp.first : 0);
                p.source_pos.push_back(cp.second);
            }
            p.masks.push_back(mask);
        }
        p.slot_ptrs.push_back(p.slot_ptrs.back() + slots);
    }
    p.value_stride = block_rows;
    return p;
}

/// Switches `p` to reading an entry in place, where the values of block
/// b's k-th slot start at base(b) + k * stride of the source layout.
template <typename Base>
void read_in_place(RowBlockPattern& p, index_type stride, Base&& base)
{
    for (index_type b = 0; b < p.blocks(); ++b) {
        p.value_base[static_cast<std::size_t>(b)] = base(b);
        for (index_type s = p.slot_ptrs[b]; s < p.slot_ptrs[b + 1]; ++s) {
            const index_type at = base(b) + (s - p.slot_ptrs[b]) * stride;
            for (index_type j = 0; j < block_rows; ++j) {
                const index_type pos =
                    p.source_pos[static_cast<std::size_t>(s * block_rows + j)];
                BSIS_ASSERT(pos < 0 || pos == at + j);
            }
        }
    }
    p.value_stride = stride;
    p.source_pos.clear();
}

}  // namespace

RowBlockPattern make_row_block_pattern(const BatchCsr<real_type>& a)
{
    const auto& ptrs = a.row_ptrs();
    const auto& cols = a.col_idxs();
    return make_blocks(
        a.rows(), [&](index_type r) { return ptrs[r + 1] - ptrs[r]; },
        [&](index_type r, index_type k) {
            const index_type q = ptrs[r] + k;
            return std::pair{cols[q], q};
        });
}

RowBlockPattern make_row_block_pattern(const BatchEll<real_type>& a)
{
    const EllView<real_type> ev{a.rows(), a.nnz_per_row(),
                                a.col_idxs().data(), nullptr};
    auto p = make_blocks(
        a.rows(), [&](index_type) { return a.nnz_per_row(); },
        [&](index_type r, index_type k) {
            const auto q = static_cast<index_type>(ev.at(r, k));
            return std::pair{ev.col_idxs[q],
                             ev.col_idxs[q] != ell_padding ? q : -1};
        });
    read_in_place(p, a.rows(), [](index_type b) { return b * block_rows; });
    p.product_first = true;
    return p;
}

RowBlockPattern make_row_block_pattern(const BatchSellp<real_type>& a)
{
    const auto& sets = a.slice_sets();
    const index_type size = a.slice_size();
    const SellpView<real_type> ev{a.rows(), size, sets.data(),
                                  a.col_idxs().data(), nullptr};
    auto p = make_blocks(
        a.rows(),
        [&](index_type r) { return sets[r / size + 1] - sets[r / size]; },
        [&](index_type r, index_type k) {
            const auto q = static_cast<index_type>(ev.at(r, k));
            return std::pair{ev.col_idxs[q],
                             ev.col_idxs[q] != ell_padding ? q : -1};
        });
    if (size % block_rows == 0) {
        // A block lies in one slice, whose slots are `size` apart.
        read_in_place(p, size, [&](index_type b) {
            const index_type r0 = b * block_rows;
            return sets[r0 / size] * size + r0 % size;
        });
    }
    p.product_first = true;
    return p;
}

}  // namespace bsis
