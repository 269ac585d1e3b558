/**
 * @file
 * Per-thread shards, merged on read: the one primitive behind every
 * "record on the hot path without contention, sum on demand" tally in
 * this codebase (KernelBackend's KernelStats, obs::MetricsRegistry,
 * obs::TraceSession's span rings).
 *
 * A ThreadShards<T> instance owns one T per thread that ever touched
 * it. local() finds the calling thread's T through a thread-local
 * cache keyed by a process-unique instance id: after a thread's first
 * touch that is a short scan with no lock and no allocation. forEach()
 * visits every shard, in registration order, under the registry lock.
 *
 * The registry only guarantees that a shard's address is stable and
 * that no two live threads share one. T brings its own read/write
 * discipline: atomics (KernelStats), or a mutex the owning thread
 * takes uncontended and readers take to see a consistent shard
 * (metrics, trace rings).
 */

#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.h"

namespace ark {

namespace detail {
/** Instance ids for every ThreadShards<T>; never reused, so a stale
 *  cache entry for a destroyed instance can never alias a live one. */
inline std::atomic<u64> next_thread_shards_id{1};
} // namespace detail

template <typename T>
class ThreadShards
{
  public:
    /** Cache entries a thread keeps per T before flushing them all;
     *  a flushed entry costs one locked re-lookup that re-adopts the
     *  thread's existing shard. */
    static constexpr size_t kCacheEntries = 256;

    ThreadShards() : id_(detail::next_thread_shards_id.fetch_add(1)) {}
    ThreadShards(const ThreadShards &) = delete;
    ThreadShards &operator=(const ThreadShards &) = delete;

    /** The calling thread's shard, registered on first use. */
    T &local() const
    {
        struct CacheEntry
        {
            u64 id;
            T *shard;
        };
        thread_local std::vector<CacheEntry> cache;
        for (const CacheEntry &e : cache) {
            if (e.id == id_)
                return *e.shard;
        }
        T *s = adopt();
        if (cache.size() >= kCacheEntries)
            cache.clear();
        cache.push_back({id_, s});
        return *s;
    }

    /** Call @p f(T &) on every shard, in registration order. */
    template <typename F>
    void forEach(F &&f) const
    {
        std::lock_guard<std::mutex> lk(m_);
        for (const auto &slot : slots_)
            f(slot->value);
    }

    /** Registered shards (one per thread that touched this instance). */
    size_t size() const
    {
        std::lock_guard<std::mutex> lk(m_);
        return slots_.size();
    }

  private:
    struct Slot
    {
        std::thread::id owner;
        T value{};
    };

    /** This thread's shard, found by owner or registered fresh.
     *  Re-adoption keeps a long-lived instance from growing a
     *  duplicate per cache flush; an OS-recycled thread id can only
     *  match a dead owner's shard, which is then safe to adopt. */
    T *adopt() const
    {
        const std::thread::id self = std::this_thread::get_id();
        std::lock_guard<std::mutex> lk(m_);
        for (const auto &slot : slots_) {
            if (slot->owner == self)
                return &slot->value;
        }
        slots_.push_back(std::make_unique<Slot>());
        slots_.back()->owner = self;
        return &slots_.back()->value;
    }

    const u64 id_;
    mutable std::mutex m_;
    mutable std::vector<std::unique_ptr<Slot>> slots_;
};

} // namespace ark
