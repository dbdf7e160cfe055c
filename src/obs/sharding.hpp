// Per-thread shard management for the trace sink.
//
// TraceSession follows the BatchLogStage pattern: every recording thread
// owns a cache-line-aligned shard it appends to without touching its
// neighbours, and snapshots merge the shards. This helper owns the shard
// lifetime and the thread -> shard lookup: the fast path is a one-entry
// thread_local cache validated by a process-wide generation stamp (so a
// destroyed owner reusing the same address never resurrects a stale
// shard), the slow path registers the thread under a mutex.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace bsis::obs {

namespace detail {

inline std::uint64_t next_shard_generation()
{
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace detail

/// Owns one `Shard` per recording thread. `Shard` must be default
/// constructible; it is expected to be `alignas(64)` so neighbouring
/// threads' shards never share a cache line.
template <typename Shard>
class PerThreadShards {
public:
    PerThreadShards() : generation_(detail::next_shard_generation()) {}

    PerThreadShards(const PerThreadShards&) = delete;
    PerThreadShards& operator=(const PerThreadShards&) = delete;

    /// The calling thread's shard (created on first use). The shard's
    /// `index` is the thread's registration order, stable for the owner's
    /// lifetime -- TraceSession uses it as the trace tid.
    Shard& local()
    {
        struct Cache {
            const void* owner = nullptr;
            std::uint64_t generation = 0;
            Shard* shard = nullptr;
        };
        thread_local Cache cache;
        if (cache.owner == this && cache.generation == generation_) {
            return *cache.shard;
        }
        Shard& shard = register_thread();
        cache.owner = this;
        cache.generation = generation_;
        cache.shard = &shard;
        return shard;
    }

    /// Visits every shard registered so far. The callback must take the
    /// shard's own lock if it races with writers.
    template <typename F>
    void for_each(F&& f) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto& shard : shards_) {
            f(*shard);
        }
    }

    template <typename F>
    void for_each(F&& f)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto& shard : shards_) {
            f(*shard);
        }
    }

    std::size_t num_shards() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return shards_.size();
    }

private:
    Shard& register_thread()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto id = std::this_thread::get_id();
        auto it = by_thread_.find(id);
        if (it != by_thread_.end()) {
            return *it->second;
        }
        shards_.push_back(std::make_unique<Shard>());
        Shard& shard = *shards_.back();
        shard.index = static_cast<int>(shards_.size()) - 1;
        by_thread_.emplace(id, &shard);
        return shard;
    }

    const std::uint64_t generation_;
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::unordered_map<std::thread::id, Shard*> by_thread_;
};

}  // namespace bsis::obs
