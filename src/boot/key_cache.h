/**
 * @file
 * Lazy rotation-key cache with usage accounting.
 *
 * Bootstrapping needs rotation keys for many amounts; which amounts —
 * and how many *distinct* keys — depends on the key schedule. The
 * whole point of Min-KS (paper Section IV-A) is to shrink that set, so
 * the cache records every distinct evk requested; tests and the
 * traffic analyzer read the count back.
 *
 * Two modes share the class:
 *
 *  - **Generating** (the classic mode): constructed with a
 *    KeyGenerator + SecretKey, misses are generated on first use.
 *  - **Uploaded** (the serving front-end's per-tenant mode):
 *    constructed with only the ring degree; keys arrive via insert*()
 *    — deserialized from EVAL_KEY wire frames
 *    (docs/wire_format.md §5.7) — and a lookup miss throws
 *    MissingKeyError instead of generating, because the cache holds
 *    no secret to generate from. The WireServer maps that error to
 *    the MISSING_KEY wire code.
 */

#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "ckks/keygen.h"
#include "obs/metrics.h"

namespace ark {

/** Thrown by an uploaded-mode KeyCache when a requested evk was never
 *  uploaded (wire error code MISSING_KEY, docs/wire_format.md §7). */
class MissingKeyError : public std::runtime_error
{
  public:
    explicit MissingKeyError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * Generates and caches evks keyed by Galois element.
 *
 * Thread-safe: a mutex serializes generation and cache lookup, so
 * concurrent serving workers may share one cache. Returned references
 * stay valid for the cache's lifetime (std::map nodes are stable).
 * Generation draws from the keygen's Rng, so the *values* of lazily
 * generated keys depend on request interleaving — callers that need
 * deterministic key material (the serving parity tests, the
 * BatchServer) call warm() up front: it generates the mult key and
 * the requested rotation keys in a canonical order, so any two caches
 * warmed with the same amount *set* — regardless of the order or
 * duplication the caller collected it in — hold bit-identical keys.
 */
class KeyCache
{
  public:
    /** Generating mode: misses are filled from @p keygen. */
    KeyCache(KeyGenerator &keygen, const SecretKey &sk, size_t degree)
        : keygen_(&keygen), sk_(&sk), degree_(degree)
    {
    }

    /** Uploaded mode: keys arrive via insert*(); misses throw
     *  MissingKeyError. Used per tenant by the network front-end. */
    explicit KeyCache(size_t degree) : degree_(degree) {}

    /** Rotation key for amount r (generated on first use). */
    const EvalKey &rotation(i64 r)
    {
        return byElt(galoisElt(r, degree_));
    }

    /**
     * Deterministically pre-generate the mult key plus the rotation
     * keys for @p amounts. Amounts are sorted and deduplicated first,
     * so generation order — and hence every key's value — depends
     * only on the set, not on how the caller gathered it. Call while
     * single-threaded (setup phase) for reproducible material; safe,
     * but order-sensitive again, if keys were already generated
     * elsewhere. Generating mode only.
     */
    void warm(std::vector<i64> amounts)
    {
        std::sort(amounts.begin(), amounts.end());
        amounts.erase(std::unique(amounts.begin(), amounts.end()),
                      amounts.end());
        (void)multiplication();
        for (i64 r : amounts)
            (void)rotation(r);
    }

    const EvalKey &conjugation()
    {
        return byElt(galoisEltConjugate(degree_));
    }

    const EvalKey &multiplication()
    {
        std::lock_guard<std::mutex> lk(m_);
        if (!mult_) {
            obs::count(obs::Counter::EvkMiss);
            if (keygen_ == nullptr)
                throw MissingKeyError(
                    "no multiplication evk uploaded");
            mult_ = std::make_unique<EvalKey>(keygen_->evkMult(*sk_));
        } else {
            obs::count(obs::Counter::EvkHit);
        }
        return *mult_;
    }

    /** Store an uploaded rotation/conjugation evk under its Galois
     *  element (replacing any previous upload for that element). */
    void insertGalois(u64 galois_elt, EvalKey key)
    {
        std::lock_guard<std::mutex> lk(m_);
        keys_[galois_elt] = std::move(key);
    }

    /** Store an uploaded rotation evk by rotation amount. */
    void insertRotation(i64 r, EvalKey key)
    {
        insertGalois(galoisElt(r, degree_), std::move(key));
    }

    /** Store an uploaded multiplication evk. */
    void insertMultiplication(EvalKey key)
    {
        std::lock_guard<std::mutex> lk(m_);
        mult_ = std::make_unique<EvalKey>(std::move(key));
    }

    /** Number of distinct rotation/conjugation evks materialized. */
    size_t distinctGaloisKeys() const
    {
        std::lock_guard<std::mutex> lk(m_);
        return keys_.size();
    }

    /** Total bytes of cached evk material (the Min-KS working set;
     *  for an uploaded-mode cache, the tenant's resident key
     *  footprint the serving benches report). */
    size_t byteSize() const
    {
        std::lock_guard<std::mutex> lk(m_);
        size_t total = mult_ ? mult_->byteSize() : 0;
        for (const auto &[elt, key] : keys_)
            total += key.byteSize();
        return total;
    }

  private:
    const EvalKey &byElt(u64 galois_elt)
    {
        // The lock is held across generation: the keygen's Rng is
        // shared state, and a miss is a rare, setup-phase event.
        std::lock_guard<std::mutex> lk(m_);
        auto it = keys_.find(galois_elt);
        if (it == keys_.end()) {
            obs::count(obs::Counter::EvkMiss);
            if (keygen_ == nullptr)
                throw MissingKeyError(
                    "no evk uploaded for galois element " +
                    std::to_string(galois_elt));
            it = keys_.emplace(galois_elt,
                               keygen_->evkGalois(*sk_, galois_elt))
                     .first;
        } else {
            obs::count(obs::Counter::EvkHit);
        }
        return it->second;
    }

    KeyGenerator *keygen_ = nullptr;
    const SecretKey *sk_ = nullptr;
    size_t degree_ = 0;
    mutable std::mutex m_;
    std::map<u64, EvalKey> keys_;
    std::unique_ptr<EvalKey> mult_;
};

} // namespace ark
