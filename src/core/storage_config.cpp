#include "core/storage_config.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace bsis {

bool StorageConfig::in_shared(const std::string& name) const
{
    for (const auto& slot : slots) {
        if (slot.name == name) {
            return slot.space == MemSpace::shared;
        }
    }
    throw BadArgument("StorageConfig::in_shared", "unknown slot " + name);
}

int StorageConfig::shared_slot_index(const std::string& name) const
{
    int ordinal = 0;
    for (const auto& slot : slots) {
        if (slot.name == name) {
            return slot.space == MemSpace::shared ? ordinal : -1;
        }
        if (slot.space == MemSpace::shared) {
            ++ordinal;
        }
    }
    throw BadArgument("StorageConfig::shared_slot_index",
                      "unknown slot " + name);
}

StorageConfig configure_storage(std::vector<VectorSlot> slots,
                                index_type length, index_type warp_size,
                                size_type value_bytes,
                                size_type shared_capacity_bytes)
{
    BSIS_ENSURE_ARG(length >= 0, "negative vector length");
    BSIS_ENSURE_ARG(warp_size > 0, "warp size must be positive");
    StorageConfig config;
    config.padded_length =
        (length + warp_size - 1) / warp_size * warp_size;
    const size_type bytes_per_vector =
        static_cast<size_type>(config.padded_length) * value_bytes;

    // Stable order: priority class first, declaration order within class.
    std::vector<std::size_t> order(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
        order[i] = i;
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return static_cast<int>(slots[a].cls) <
                                static_cast<int>(slots[b].cls);
                     });

    size_type used = 0;
    for (const auto i : order) {
        if (bytes_per_vector > 0 &&
            used + bytes_per_vector <= shared_capacity_bytes) {
            slots[i].space = MemSpace::shared;
            used += bytes_per_vector;
            ++config.num_shared;
        } else {
            slots[i].space = MemSpace::global;
            ++config.num_global;
        }
    }
    config.shared_bytes = used;
    config.slots = std::move(slots);
    return config;
}

namespace {

/// A solver's own slots, then one `prec_<i>` slot per preconditioner work
/// vector: the order every `*_slots` function returns.
std::vector<VectorSlot> with_precond(std::vector<VectorSlot> slots,
                                     int precond_work_vectors)
{
    for (int i = 0; i < precond_work_vectors; ++i) {
        slots.push_back({"prec_" + std::to_string(i), SlotClass::precond,
                         MemSpace::global});
    }
    return slots;
}

}  // namespace

std::vector<VectorSlot> bicgstab_slots(int precond_work_vectors)
{
    return with_precond(
        {
            {"p_hat", SlotClass::spmv, MemSpace::global},
            {"v", SlotClass::spmv, MemSpace::global},
            {"s_hat", SlotClass::spmv, MemSpace::global},
            {"t", SlotClass::spmv, MemSpace::global},
            {"r", SlotClass::intermediate, MemSpace::global},
            {"r_hat", SlotClass::intermediate, MemSpace::global},
            {"p", SlotClass::intermediate, MemSpace::global},
            {"s", SlotClass::intermediate, MemSpace::global},
            {"x", SlotClass::intermediate, MemSpace::global},
        },
        precond_work_vectors);
}

std::vector<VectorSlot> cgs_slots(int precond_work_vectors)
{
    return with_precond(
        {
            {"u_hat", SlotClass::spmv, MemSpace::global},
            {"v", SlotClass::spmv, MemSpace::global},
            {"t", SlotClass::spmv, MemSpace::global},
            {"r", SlotClass::intermediate, MemSpace::global},
            {"r_hat", SlotClass::intermediate, MemSpace::global},
            {"u", SlotClass::intermediate, MemSpace::global},
            {"p", SlotClass::intermediate, MemSpace::global},
            {"q", SlotClass::intermediate, MemSpace::global},
            {"x", SlotClass::intermediate, MemSpace::global},
        },
        precond_work_vectors);
}

std::vector<VectorSlot> cg_slots(int precond_work_vectors)
{
    return with_precond(
        {
            {"p", SlotClass::spmv, MemSpace::global},
            {"q", SlotClass::spmv, MemSpace::global},
            {"r", SlotClass::intermediate, MemSpace::global},
            {"z", SlotClass::intermediate, MemSpace::global},
            {"x", SlotClass::intermediate, MemSpace::global},
        },
        precond_work_vectors);
}

std::vector<VectorSlot> gmres_slots(int restart, int precond_work_vectors)
{
    BSIS_ENSURE_ARG(restart >= 1, "restart must be >= 1");
    std::vector<VectorSlot> slots{
        {"w", SlotClass::spmv, MemSpace::global},
        {"z", SlotClass::spmv, MemSpace::global},
        {"r", SlotClass::intermediate, MemSpace::global},
        {"x", SlotClass::intermediate, MemSpace::global},
    };
    for (int i = 0; i <= restart; ++i) {
        slots.push_back({"v_" + std::to_string(i), SlotClass::intermediate,
                         MemSpace::global});
    }
    return with_precond(std::move(slots), precond_work_vectors);
}

std::vector<VectorSlot> richardson_slots(int precond_work_vectors)
{
    return with_precond(
        {
            {"t", SlotClass::spmv, MemSpace::global},
            {"r", SlotClass::intermediate, MemSpace::global},
            {"x", SlotClass::intermediate, MemSpace::global},
        },
        precond_work_vectors);
}

std::vector<VectorSlot> bicg_slots(int precond_work_vectors)
{
    return with_precond(
        {
            {"p", SlotClass::spmv, MemSpace::global},
            {"p_hat", SlotClass::spmv, MemSpace::global},
            {"q", SlotClass::spmv, MemSpace::global},
            {"q_hat", SlotClass::spmv, MemSpace::global},
            {"r", SlotClass::intermediate, MemSpace::global},
            {"r_hat", SlotClass::intermediate, MemSpace::global},
            {"z", SlotClass::intermediate, MemSpace::global},
            {"z_hat", SlotClass::intermediate, MemSpace::global},
            {"x", SlotClass::intermediate, MemSpace::global},
        },
        precond_work_vectors);
}

std::vector<VectorSlot> chebyshev_slots(int precond_work_vectors)
{
    return with_precond(
        {
            {"p", SlotClass::spmv, MemSpace::global},
            {"q", SlotClass::spmv, MemSpace::global},
            {"r", SlotClass::intermediate, MemSpace::global},
            {"z", SlotClass::intermediate, MemSpace::global},
            {"x", SlotClass::intermediate, MemSpace::global},
        },
        precond_work_vectors);
}

}  // namespace bsis
