/**
 * @file
 * PolyPool correctness: recycled buffers keep their (degree, limbs)
 * identity, stale contents never reach zeroed acquires, the free list
 * is bounded, and concurrent acquire/release from many threads is
 * race-free (this suite runs under the ASan and TSan CI jobs via the
 * `serving` CTest label).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "rns/poly_pool.h"

namespace ark {
namespace {

TEST(PolyPoolTest, AcquireShapesAndMiss)
{
    PolyPool pool;
    RnsPoly p = pool.acquire(64, 3, Rep::Eval);
    EXPECT_EQ(p.degree(), 64u);
    EXPECT_EQ(p.numLimbs(), 3u);
    EXPECT_EQ(p.rep(), Rep::Eval);
    auto st = pool.stats();
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.hits, 0u);
    // A fresh (miss) buffer is value-initialized, like the plain
    // constructor.
    for (size_t l = 0; l < 3; ++l) {
        for (size_t c = 0; c < 64; ++c)
            EXPECT_EQ(p.limb(l)[c], 0u);
    }
}

TEST(PolyPoolTest, RecyclesByShapeKey)
{
    PolyPool pool;
    RnsPoly a = pool.acquire(64, 2, Rep::Coeff);
    a.limb(0)[0] = 42;
    pool.release(std::move(a));

    // Different shape: must not be served the cached (64, 2) buffer.
    RnsPoly b = pool.acquire(64, 4, Rep::Coeff);
    EXPECT_EQ(pool.stats().misses, 2u);
    EXPECT_EQ(b.numLimbs(), 4u);

    // Same shape: served from the free list, stale word visible (the
    // documented acquire contract).
    RnsPoly c = pool.acquire(64, 2, Rep::Coeff);
    EXPECT_EQ(pool.stats().hits, 1u);
    EXPECT_EQ(c.limb(0)[0], 42u);
}

TEST(PolyPoolTest, AcquireZeroedScrubsStaleContents)
{
    PolyPool pool;
    RnsPoly junk = pool.acquire(128, 3, Rep::Eval);
    for (size_t l = 0; l < 3; ++l) {
        for (size_t c = 0; c < 128; ++c)
            junk.limb(l)[c] = 0xABCDABCDABCDABCDULL;
    }
    pool.release(std::move(junk));

    RnsPoly z = pool.acquireZeroed(128, 3, Rep::Eval);
    EXPECT_EQ(pool.stats().hits, 1u); // recycled, then scrubbed
    for (size_t l = 0; l < 3; ++l) {
        for (size_t c = 0; c < 128; ++c)
            ASSERT_EQ(z.limb(l)[c], 0u) << "stale word leaked";
    }
}

TEST(PolyPoolTest, ReleasedPolyIsEmptyAndEmptyReleaseIsNoop)
{
    PolyPool pool;
    RnsPoly p = pool.acquire(64, 2, Rep::Coeff);
    pool.release(std::move(p));
    EXPECT_EQ(p.degree(), 0u);    // NOLINT: moved-from by design
    EXPECT_EQ(p.numLimbs(), 0u);
    pool.release(std::move(p)); // releasing an empty poly: no-op
    EXPECT_EQ(pool.stats().released, 1u);

    RnsPoly never_init;
    pool.release(std::move(never_init));
    EXPECT_EQ(pool.stats().released, 1u);
}

TEST(PolyPoolTest, FreeListIsBounded)
{
    PolyPool pool;
    // Release far more same-shape buffers than the per-key cap; the
    // pool must not retain them all.
    std::vector<RnsPoly> polys;
    for (int i = 0; i < 100; ++i)
        polys.push_back(pool.acquire(32, 1, Rep::Coeff));
    for (auto &p : polys)
        pool.release(std::move(p));
    auto st = pool.stats();
    EXPECT_EQ(st.released, 100u);
    EXPECT_LE(st.cached_buffers, 64u);
    EXPECT_GT(st.cached_buffers, 0u);
}

/**
 * Concurrent acquire/fill/release hammering from every worker of a
 * thread pool: each thread writes a thread-unique pattern into its
 * acquired poly and verifies the pattern is intact before releasing —
 * two threads being handed the same buffer simultaneously would trip
 * the check (and TSan would flag the race).
 */
TEST(PolyPoolTest, ConcurrentAcquireReleaseIsRaceFree)
{
    PolyPool pool;
    ThreadPool workers(4);
    const size_t degree = 256;
    const int iters = 200;
    std::atomic<u64> mismatches{0};

    workers.parallelFor(8, [&](size_t job) {
        for (int it = 0; it < iters; ++it) {
            // Mix of the two shapes so free lists see contention.
            const size_t limbs = 1 + (job + it) % 2;
            RnsPoly p = pool.acquire(degree, limbs, Rep::Eval);
            const u64 tag =
                (static_cast<u64>(job) << 32) ^ static_cast<u64>(it);
            for (size_t l = 0; l < limbs; ++l) {
                for (size_t c = 0; c < degree; ++c)
                    p.limb(l)[c] = tag + c;
            }
            for (size_t l = 0; l < limbs; ++l) {
                for (size_t c = 0; c < degree; ++c) {
                    if (p.limb(l)[c] != tag + c)
                        mismatches.fetch_add(1);
                }
            }
            pool.release(std::move(p));
        }
    });
    EXPECT_EQ(mismatches.load(), 0u);
    auto st = pool.stats();
    EXPECT_EQ(st.released, 8u * iters);
    EXPECT_EQ(st.hits + st.misses, 8u * iters);
}

/** acquireZeroed under concurrency: recycled garbage must never
 *  surface through the zeroed path. */
TEST(PolyPoolTest, ConcurrentZeroedAcquires)
{
    PolyPool pool;
    ThreadPool workers(4);
    std::atomic<u64> nonzero{0};
    workers.parallelFor(8, [&](size_t job) {
        for (int it = 0; it < 100; ++it) {
            RnsPoly p = pool.acquireZeroed(128, 2, Rep::Coeff);
            for (size_t l = 0; l < 2; ++l) {
                for (size_t c = 0; c < 128; ++c) {
                    if (p.limb(l)[c] != 0)
                        nonzero.fetch_add(1);
                }
            }
            // Poison before returning so a zeroing bug is observable.
            for (size_t l = 0; l < 2; ++l) {
                for (size_t c = 0; c < 128; ++c)
                    p.limb(l)[c] = ~0ULL - job;
            }
            pool.release(std::move(p));
        }
    });
    EXPECT_EQ(nonzero.load(), 0u);
}

} // namespace
} // namespace ark
