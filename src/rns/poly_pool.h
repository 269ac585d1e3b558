/**
 * @file
 * Thread-safe free-list pool for RnsPoly backing buffers.
 *
 * Every hot CKKS op churns through short-lived (limbs x N) temporaries
 * — key-switch digits, BConv outputs and scratch, automorphism
 * results. Allocating each one fresh pays a heap round-trip plus an
 * O(N * limbs) zero-fill per op. The pool recycles those buffers by
 * (degree, limb count): acquire() hands back a poly whose words are
 * UNSPECIFIED (stale contents of the previous user), which is safe
 * exactly when every word is overwritten before being read — the
 * contract all pooled call sites in rns/backend.cpp and
 * ckks/evaluator.cpp uphold. Accumulators that are read-modify-written
 * use acquireZeroed() instead.
 *
 * Lifetime rules (see docs/architecture.md):
 *  - release() may only be called on polys whose words this pool (or
 *    a plain constructor) produced and that no other reference aliases;
 *    after release the poly is empty and must not be used.
 *  - A poly acquired from the pool is a normal value: letting it
 *    destruct (e.g. escaping into a user-held Ciphertext) is always
 *    correct, it just returns the buffer to the heap instead of the
 *    pool.
 *  - The pool may be shared by any number of threads (the serving
 *    runtime's workers share one context/backend); all methods are
 *    mutex-guarded, and the critical sections move only pointers.
 *
 * Internally the free lists are striped: each thread is pinned to one
 * of kStripes stripes (a thread-local ticket, round-robin) and parks
 * its releases there. An acquire that misses its own stripe steals
 * from the others (one lock at a time, never nested) before falling
 * back to the heap, so buffers released by another thread are still
 * recycled. The per-shape and total-word retention caps are split
 * evenly across stripes, which keeps the global bounds of the
 * unstriped pool intact.
 *
 * What the stripes measurably do is bound one thread's retention: a
 * thread parks at most kMaxPerKeyPerStripe (8) buffers per shape and
 * kMaxWordsPerStripe (32 MiB) in all, and frees the rest. Lock
 * contention was never shown to matter: a copy with kStripes = 1
 * served the 2-worker testSmall serving benchmark at about the same
 * rate (143-144 against 146-148 req/s), while a 1-thread testBoot
 * bootstrap loop missed the pool about 45% less often (~280 against
 * ~500 misses per bootstrap), ran 2-11% faster and peaked 14 MiB
 * higher (165 against 151 MiB RSS). Measured on a 4-vCPU AVX-512 host.
 */

#pragma once

#include <array>
#include <cstddef>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "rns/poly.h"

namespace ark {

/** Free-list recycler of RnsPoly buffers keyed by (degree, limbs). */
class PolyPool
{
  public:
    PolyPool() = default;
    PolyPool(const PolyPool &) = delete;
    PolyPool &operator=(const PolyPool &) = delete;

    /**
     * A (degree x limbs) poly whose word contents are UNSPECIFIED
     * (zero when freshly allocated, stale when recycled). Callers must
     * overwrite every word before reading any.
     */
    RnsPoly acquire(size_t degree, size_t limbs, Rep rep);

    /** Like acquire but with every word cleared (for accumulators). */
    RnsPoly acquireZeroed(size_t degree, size_t limbs, Rep rep);

    /** Return @p p 's buffer to the free list; @p p becomes empty. */
    void release(RnsPoly &&p);

    /** Recycling tallies (for tests and the micro-kernel bench). */
    struct Stats
    {
        u64 hits = 0;     ///< acquires served from the free list
        u64 misses = 0;   ///< acquires that had to heap-allocate
        u64 released = 0; ///< buffers returned (dropped ones included)
        size_t cached_buffers = 0; ///< buffers currently pooled
        size_t cached_words = 0;   ///< words currently pooled
    };
    Stats stats() const;

  private:
    /** Free-list stripes; a power of two so the thread ticket maps on
     *  with a mask. With the caps below, eight stripes hold one
     *  thread's retention to 8 buffers per shape and 32 MiB. */
    static constexpr size_t kStripes = 8;
    /** Buffers pooled per (degree, limbs) key beyond which release()
     *  frees instead of caching — bounds per-shape retention while
     *  comfortably covering one serving worker set's temporaries.
     *  Split evenly across stripes. */
    static constexpr size_t kMaxPerKey = 64;
    /**
     * Total words the pool will retain across all keys (256 MiB).
     * Long-running servers churn through many (degree, limbs) shapes
     * as workloads change level; without a byte budget the per-key
     * cap alone would let cached memory ratchet up by shape. Releases
     * beyond the budget free to the heap instead. Split evenly across
     * stripes.
     */
    static constexpr size_t kMaxCachedWords =
        (size_t(256) << 20) / sizeof(u64);
    static constexpr size_t kMaxPerKeyPerStripe = kMaxPerKey / kStripes;
    static constexpr size_t kMaxWordsPerStripe =
        kMaxCachedWords / kStripes;

    struct Stripe
    {
        mutable std::mutex m;
        std::map<std::pair<size_t, size_t>,
                 std::vector<std::vector<u64>>>
            free;
        size_t cached_words = 0;
        u64 hits = 0;
        u64 misses = 0;
        u64 released = 0;
    };

    /** Pop a cached buffer of @p key shape off @p s, if any. */
    static bool popFrom(Stripe &s, std::pair<size_t, size_t> key,
                        std::vector<u64> &buf);

    std::array<Stripe, kStripes> stripes_;
};

} // namespace ark
