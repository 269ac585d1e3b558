#include "rns/poly_pool.h"

#include <algorithm>
#include <atomic>

namespace ark {

namespace {

/**
 * Stripe index of the calling thread: a round-robin ticket taken once
 * per thread, shared by every pool (stripe layouts are identical, so
 * one ticket spreads threads over all of them alike).
 */
size_t
threadStripeTicket()
{
    static std::atomic<size_t> next{0};
    thread_local const size_t ticket =
        next.fetch_add(1, std::memory_order_relaxed);
    return ticket;
}

} // namespace

bool
PolyPool::popFrom(Stripe &s, std::pair<size_t, size_t> key,
                  std::vector<u64> &buf)
{
    std::lock_guard<std::mutex> lk(s.m);
    auto it = s.free.find(key);
    if (it == s.free.end() || it->second.empty())
        return false;
    buf = std::move(it->second.back());
    it->second.pop_back();
    s.cached_words -= buf.size();
    return true;
}

RnsPoly
PolyPool::acquire(size_t degree, size_t limbs, Rep rep)
{
    const size_t base = threadStripeTicket() % kStripes;
    const std::pair<size_t, size_t> key{degree, limbs};
    std::vector<u64> buf;
    bool hit = false;
    // Own stripe first; steal from the others on a miss so buffers
    // released by a different thread still get recycled. Locks are
    // taken one stripe at a time, never nested.
    for (size_t k = 0; k < kStripes; ++k) {
        if (popFrom(stripes_[(base + k) % kStripes], key, buf)) {
            hit = true;
            break;
        }
    }
    Stripe &own = stripes_[base];
    {
        std::lock_guard<std::mutex> lk(own.m);
        if (hit)
            ++own.hits;
        else
            ++own.misses;
    }
    return RnsPoly(std::move(buf), degree, limbs, rep);
}

RnsPoly
PolyPool::acquireZeroed(size_t degree, size_t limbs, Rep rep)
{
    RnsPoly p = acquire(degree, limbs, rep);
    // A fresh buffer is already value-initialized; only a recycled one
    // carries stale words. Cheaper to fill unconditionally than track.
    std::fill(p.limb(0), p.limb(0) + degree * limbs, u64{0});
    return p;
}

void
PolyPool::release(RnsPoly &&p)
{
    const size_t degree = p.degree();
    const size_t limbs = p.numLimbs();
    if (degree == 0 || limbs == 0)
        return;
    std::vector<u64> buf = std::move(p).takeBuffer();
    Stripe &own = stripes_[threadStripeTicket() % kStripes];
    std::lock_guard<std::mutex> lk(own.m);
    ++own.released;
    auto &list = own.free[{degree, limbs}];
    if (list.size() < kMaxPerKeyPerStripe &&
        own.cached_words + buf.size() <= kMaxWordsPerStripe) {
        own.cached_words += buf.size();
        list.push_back(std::move(buf));
    }
    // else: drop on the floor — the vector destructor frees it.
}

PolyPool::Stats
PolyPool::stats() const
{
    Stats s;
    for (const Stripe &st : stripes_) {
        std::lock_guard<std::mutex> lk(st.m);
        s.hits += st.hits;
        s.misses += st.misses;
        s.released += st.released;
        s.cached_words += st.cached_words;
        for (const auto &[key, list] : st.free)
            s.cached_buffers += list.size();
    }
    return s;
}

} // namespace ark
