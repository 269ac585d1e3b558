/**
 * @file
 * ThreadShards<T> (common/thread_shards.h), the per-thread shard
 * registry behind KernelStats, the metrics registry and the trace
 * rings: concurrent first touch merges exactly, a thread whose cache
 * entry was flushed re-adopts its shard, and live instances never
 * share a shard. Runs under TSan in CI (the `serving` label).
 */

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "common/thread_shards.h"

namespace ark {
namespace {

struct Tally
{
    std::atomic<u64> n{0};
};

u64
sum(const ThreadShards<Tally> &shards)
{
    u64 total = 0;
    shards.forEach([&](Tally &t) { total += t.n.load(); });
    return total;
}

TEST(ThreadShards, ConcurrentFirstTouchMergesExactly)
{
    ThreadShards<Tally> shards;
    constexpr size_t kJobs = 4096;
    ThreadPool pool(4);
    pool.parallelFor(kJobs, [&](size_t i) {
        shards.local().n.fetch_add(i + 1, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum(shards), kJobs * (kJobs + 1) / 2);
    // One shard per thread that ran a job: the pool's workers plus
    // the calling thread, never more.
    EXPECT_GE(shards.size(), 1u);
    EXPECT_LE(shards.size(), pool.threads() + 1);
}

TEST(ThreadShards, FlushedCacheReadoptsTheThreadsShard)
{
    constexpr size_t kThreads = 4;
    ThreadShards<Tally> shards;
    std::atomic<size_t> readopted{0};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            Tally *first = &shards.local();
            first->n.fetch_add(1);
            // Touch more instances than the per-thread cache holds, so
            // this thread's entry for `shards` is flushed.
            std::vector<std::unique_ptr<ThreadShards<Tally>>> others;
            for (size_t i = 0; i <= ThreadShards<Tally>::kCacheEntries;
                 ++i) {
                others.push_back(std::make_unique<ThreadShards<Tally>>());
                others.back()->local().n.fetch_add(1);
            }
            Tally *again = &shards.local();
            again->n.fetch_add(1);
            if (again == first)
                readopted.fetch_add(1);
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(readopted.load(), kThreads);
    EXPECT_EQ(shards.size(), kThreads);
    EXPECT_EQ(sum(shards), 2 * kThreads);
}

TEST(ThreadShards, LiveInstancesNeverAlias)
{
    ThreadShards<Tally> a;
    ThreadShards<Tally> b;
    EXPECT_NE(&a.local(), &b.local());
    a.local().n.fetch_add(5);
    b.local().n.fetch_add(7);
    EXPECT_EQ(sum(a), 5u);
    EXPECT_EQ(sum(b), 7u);

    // An instance created where a destroyed one lived (the allocator
    // may hand back the same address) starts with fresh shards: the
    // stale cache entry is keyed by the dead instance's id.
    for (int i = 0; i < 64; ++i) {
        auto s = std::make_unique<ThreadShards<Tally>>();
        Tally &t = s->local();
        EXPECT_EQ(t.n.load(), 0u) << "instance " << i;
        t.n.fetch_add(1);
        EXPECT_EQ(s->size(), 1u);
    }
    EXPECT_EQ(sum(a), 5u);
    EXPECT_EQ(sum(b), 7u);
}

} // namespace
} // namespace ark
