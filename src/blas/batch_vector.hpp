// Batched vector storage and views.
//
// A BatchVector holds `num_batch` independent vectors of equal length in one
// contiguous allocation (entry-major). Solvers operate on per-entry
// VecView/ConstVecView spans, so the same kernels work on owned storage, on
// shared-memory-simulated workspaces, and on slices of larger arrays.
#pragma once

#include <algorithm>
#include <vector>

#include "util/error.hpp"
#include "util/isa.hpp"
#include "util/types.hpp"

namespace bsis {

/// Mutable view of one vector of a batch: pointer + length.
template <typename T>
struct VecView {
    T* data = nullptr;
    index_type len = 0;

    T& operator[](index_type i) const { return data[i]; }
    T* begin() const { return data; }
    T* end() const { return data + len; }
};

/// Read-only view of one vector of a batch.
template <typename T>
struct ConstVecView {
    const T* data = nullptr;
    index_type len = 0;

    ConstVecView() = default;
    ConstVecView(const T* d, index_type l) : data(d), len(l) {}
    /// Implicit conversion so kernels can take const views of mutable data.
    ConstVecView(VecView<T> v) : data(v.data), len(v.len) {}

    const T& operator[](index_type i) const { return data[i]; }
    const T* begin() const { return data; }
    const T* end() const { return data + len; }
};

/// Read-only view of a batch-interleaved lane group: `width` vectors of
/// length `len` stored batch-major (SoA over lanes), element i of lane l
/// at data[i * width + l]. This is the host analogue of the paper's
/// one-thread-block-per-system layout turned sideways: where the GPU's
/// warp lanes sweep the ROWS of one system in lockstep, the CPU's SIMD
/// lanes sweep `width` SYSTEMS in lockstep, so each row step is one
/// contiguous width-`width` vector operation.
template <typename T>
struct ConstLaneGroupView {
    const T* data = nullptr;
    index_type len = 0;  ///< rows per lane
    int width = 0;       ///< lanes in the group

    ConstLaneGroupView() = default;
    ConstLaneGroupView(const T* d, index_type l, int w)
        : data(d), len(l), width(w)
    {}

    const T& at(index_type i, int lane) const
    {
        return data[i * width + lane];
    }
};

// The lane unpacker runs in the lane drivers, once per instruction-set copy
// (util/isa.hpp).
inline namespace BSIS_ISA_NAMESPACE {

/// Unpacks lane `lane` of an interleaved group back into an entry-major
/// vector: x[i] := group(i, lane).
template <typename T>
inline void unpack_lane(ConstLaneGroupView<T> group, int lane, VecView<T> x)
{
    BSIS_ASSERT(lane >= 0 && lane < group.width && x.len <= group.len);
    for (index_type i = 0; i < x.len; ++i) {
        x[i] = group.at(i, lane);
    }
}

}  // inline namespace BSIS_ISA_NAMESPACE

/// `num_batch` vectors of length `len` in one contiguous entry-major array.
template <typename T>
class BatchVector {
public:
    BatchVector() = default;

    BatchVector(size_type num_batch, index_type len, T fill_value = T{})
        : num_batch_(num_batch), len_(len)
    {
        BSIS_ENSURE_ARG(num_batch >= 0, "negative batch count");
        BSIS_ENSURE_ARG(len >= 0, "negative vector length");
        values_.assign(static_cast<std::size_t>(num_batch) * len,
                       fill_value);
    }

    size_type num_batch() const { return num_batch_; }
    index_type len() const { return len_; }

    BSIS_INLINE_ONLY VecView<T> entry(size_type b)
    {
        BSIS_ASSERT(b >= 0 && b < num_batch_);
        return {values_.data() + static_cast<std::size_t>(b) * len_, len_};
    }

    BSIS_INLINE_ONLY ConstVecView<T> entry(size_type b) const
    {
        BSIS_ASSERT(b >= 0 && b < num_batch_);
        return {values_.data() + static_cast<std::size_t>(b) * len_, len_};
    }

    T* data() { return values_.data(); }
    const T* data() const { return values_.data(); }
    size_type size() const { return static_cast<size_type>(values_.size()); }

    void fill(T value) { std::fill(values_.begin(), values_.end(), value); }

private:
    size_type num_batch_ = 0;
    index_type len_ = 0;
    std::vector<T> values_;
};

}  // namespace bsis
