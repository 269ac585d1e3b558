/**
 * @file
 * CkksContext: all precomputed material for one CKKS parameter set.
 *
 * Holds the RNS prime chains C = {q_0..q_L} and B = {p_0..p_alpha-1}
 * (paper Table I), NTT tables for every prime, the Han-Ki generalized
 * key-switching gadget constants, and the per-level rescale constants.
 * Every scheme object (encoder, keygen, evaluator, bootstrapper) is
 * constructed from a shared context.
 */

#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "ckks/params.h"
#include "rns/automorphism.h"
#include "rns/backend.h"
#include "rns/bconv.h"
#include "rns/ntt.h"
#include "rns/poly.h"

namespace ark {

/** The RNS prime chains of one parameter set. */
struct PrimeChains
{
    std::vector<u64> q; ///< q_0..q_L (C in the paper)
    std::vector<u64> p; ///< the special primes (B in the paper)
};

/** The prime chains a CkksContext for @p params uses. */
PrimeChains primeChains(const CkksParams &params);

/** Bits by which a CkksContext requires the special primes' product P
 *  to exceed the largest digit Q_j. */
constexpr double kSpecialMarginBits = 16;

/** Shared precomputation for a CKKS instance. */
class CkksContext
{
  public:
    explicit CkksContext(CkksParams params);

    const CkksParams &params() const { return params_; }
    size_t degree() const { return params_.degree; }
    int maxLevel() const { return params_.max_level; }
    int alpha() const { return params_.alpha(); }
    int dnum() const { return params_.dnum; }

    /** The q_i prime chain (C in the paper), length L+1. */
    const std::vector<Modulus> &qModuli() const { return q_moduli_; }
    /** The special primes (B in the paper), length alpha. */
    const std::vector<Modulus> &pModuli() const { return p_moduli_; }

    const std::vector<NttTables> &qTables() const { return q_tables_; }
    const std::vector<NttTables> &pTables() const { return p_tables_; }

    /** Moduli for a level-ell polynomial: q_0..q_ell. */
    std::vector<Modulus> levelModuli(int level) const;

    /** Moduli for an extended (key-switching) polynomial at level ell:
     *  q_0..q_ell followed by p_0..p_alpha-1. */
    std::vector<Modulus> keyModuli(int level) const;

    /**
     * NTT table for limb @p limb of an extended level-@p level
     * polynomial (q limbs first, then p limbs).
     */
    const NttTables &keyTable(size_t limb, int level) const;

    /** Number of key-switching digits in use at @p level . */
    int numDigits(int level) const;

    /**
     * Gadget constant g_i for digit @p digit reduced mod every prime of
     * the extended basis [q_0..q_L, p_0..p_alpha-1]. g_i is 1 mod the
     * primes of C_i, 0 mod the other q primes.
     */
    const std::vector<u64> &gadget(int digit) const
    {
        return gadget_[digit];
    }

    /** P = prod(B) reduced mod q_i, and its inverse mod q_i. */
    u64 pModQ(size_t i) const { return p_mod_q_[i]; }
    u64 pInvModQ(size_t i) const { return p_inv_mod_q_[i]; }

    /** q_level^{-1} mod q_i for i < level (rescale constants). */
    u64 qLastInvModQ(int level, size_t i) const
    {
        return q_last_inv_[level][i];
    }

    /** Cached automorphism for a Galois element. */
    const Automorphism &automorphism(u64 galois_elt) const;

    /**
     * The kernel engine executing all limb-level compute for this
     * context (selected by CkksParams::backend, overridable with
     * ARK_BACKEND / ARK_THREADS). Every scheme layer dispatches its
     * kernels through this object; its KernelStats accumulate the
     * measured per-kernel counts the core/ and sim/ models consume.
     */
    KernelBackend &backend() const { return *backend_; }

    /**
     * The backend's poly-buffer recycler. Scheme layers acquire
     * fully-overwritten hot-path temporaries (key-switch digits,
     * accumulators, BConv/automorphism scratch) here instead of
     * heap-allocating per op; see rns/poly_pool.h for the contract.
     */
    PolyPool &pool() const { return backend_->pool(); }

    /** NTT-table pointers for the first @p count q limbs (built once
     *  per count in the constructor; key-switch paths call this per
     *  op). */
    const std::vector<const NttTables *> &qTablePtrs(size_t count) const;
    /** Per-limb tables of an extended level-@p level poly
     *  (q_0..q_level then the specials); built once per level. */
    const std::vector<const NttTables *> &keyTablePtrs(int level) const;

    /**
     * BConv tables for key-switch digit @p digit at @p level (digit
     * primes -> every other prime of the extended basis), built once
     * per (level, digit) in the constructor.
     */
    const BaseConverter &digitConverter(int level, int digit) const;
    /** BConv tables for ModDown: B -> q_0..q_level. */
    const BaseConverter &modDownConverter(int level) const;

    /**
     * Forward NTT of every limb of an extended level-@p level poly
     * (limbs ordered q first, then specials).
     */
    void keyNttForward(RnsPoly &p, int level) const;

  private:
    CkksParams params_;
    std::unique_ptr<KernelBackend> backend_;
    std::vector<Modulus> q_moduli_;
    std::vector<Modulus> p_moduli_;
    std::vector<NttTables> q_tables_;
    std::vector<NttTables> p_tables_;
    std::vector<std::vector<u64>> gadget_;
    std::vector<u64> p_mod_q_;
    std::vector<u64> p_inv_mod_q_;
    std::vector<std::vector<u64>> q_last_inv_;
    /** [count] -> &q_tables_[0..count); [level] -> keyTable pointers. */
    std::vector<std::vector<const NttTables *>> q_table_ptrs_;
    std::vector<std::vector<const NttTables *>> key_table_ptrs_;
    /** [level][digit] -> decompose converter; [level] -> ModDown one. */
    std::vector<std::vector<BaseConverter>> digit_bconv_;
    std::vector<BaseConverter> moddown_bconv_;
    /**
     * Guards the automorphism cache so concurrent evaluator callers
     * (the serving runtime) can share one context: Galois elements
     * are not known up front, so it fills lazily. Returned references
     * stay valid across later insertions (std::map nodes are stable),
     * so the lock only covers lookup/insert.
     */
    mutable std::mutex cache_m_;
    mutable std::map<u64, std::unique_ptr<Automorphism>> auto_cache_;
};

/** An encoded (unencrypted) polynomial with scale bookkeeping. */
struct Plaintext
{
    RnsPoly poly;      ///< Eval representation, level+1 limbs
    double scale = 0;  ///< Delta factor baked into the coefficients
    int level = 0;
};

/** An RLWE ciphertext (B, A) with decrypt(B, A) = B + A * s. */
struct Ciphertext
{
    RnsPoly b;
    RnsPoly a;
    double scale = 0;
    size_t slots = 0;

    int level() const { return static_cast<int>(b.numLimbs()) - 1; }
};

} // namespace ark
