/**
 * @file
 * Pluggable kernel-backend layer: every limb-level kernel of the
 * library — element-wise limb ops, (I)NTT, BConv, automorphism, the
 * evk MAC, and the fused INTT->BConv->NTT key-switch digit path
 * (Alg. 1) — executes behind this interface.
 *
 * The scheme layers (ckks/, boot/) never touch kernel loops directly;
 * they dispatch through the KernelBackend owned by their CkksContext.
 * That seam is what lets the same scheme code run on the scalar
 * reference engine, the limb-parallel thread-pool engine, and any
 * future accelerator-style engine, and it is where per-kernel
 * invocation counts and word-traffic tallies (KernelStats) are
 * recorded for core/traffic_analyzer and sim/simulator to consume.
 *
 * Every shipped backend is bit-identical to the scalar reference:
 * ParallelBackend runs the exact same per-limb loop bodies and differs
 * only in the executor that maps limb jobs onto threads; SimdBackend
 * overrides the per-job kernel bodies with hand-vectorized AVX-512 /
 * AVX2 code that applies the same exact integer arithmetic lane-wise
 * (tests/test_backend_parity.cpp enforces both).
 */

#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/thread_shards.h"
#include "rns/automorphism.h"
#include "rns/backend_kind.h"
#include "rns/bconv.h"
#include "rns/cpu_features.h"
#include "rns/kernel_stats.h"
#include "rns/ntt.h"
#include "rns/poly.h"
#include "rns/poly_pool.h"

namespace ark {

/**
 * One term ct_k * pt_k of KernelBackend::plainMulSum. @p pt is either
 * a stored plaintext in Eval rep with at least as many limbs as the
 * output (read in place; dropping the extra limbs is the ModDown), or
 * an OF-Limb source: one Coeff-rep limb of centered residues mod q_0,
 * from which every output limb is generated at use time (Eq. 12).
 */
struct PlainMulTerm
{
    const RnsPoly *b;
    const RnsPoly *a;
    const RnsPoly *pt;
};

/**
 * Products of two residues mod @p q a 128-bit accumulator that
 * already holds a residue can absorb: floor((2^128 - q) / (q - 1)^2),
 * at least 256 for q < 2^60. plainMulSum folds (reduces and restarts)
 * its accumulators before exceeding it.
 */
size_t plainMacFoldTerms(const Modulus &q);

/** Engine executing all limb-level kernels; owned by a CkksContext. */
class KernelBackend
{
  public:
    KernelBackend();
    virtual ~KernelBackend();

    virtual const char *name() const = 0;
    virtual BackendKind kind() const = 0;
    /** Threads applied to a kernel (1 for the scalar engine). */
    virtual size_t threads() const = 0;

    /// @name Element-wise limb kernels
    /// @{
    void add(const RnsPoly &a, const RnsPoly &b,
             const std::vector<Modulus> &moduli, RnsPoly &r);
    void sub(const RnsPoly &a, const RnsPoly &b,
             const std::vector<Modulus> &moduli, RnsPoly &r);
    void neg(const RnsPoly &a, const std::vector<Modulus> &moduli,
             RnsPoly &r);
    void mulEval(const RnsPoly &a, const RnsPoly &b,
                 const std::vector<Modulus> &moduli, RnsPoly &r);
    void mulAccEval(const RnsPoly &a, const RnsPoly &b,
                    const std::vector<Modulus> &moduli, RnsPoly &r);
    void mulScalar(const RnsPoly &a,
                   const std::vector<u64> &scalar_per_limb,
                   const std::vector<Modulus> &moduli, RnsPoly &r);
    void addScalar(const RnsPoly &a,
                   const std::vector<u64> &scalar_per_limb,
                   const std::vector<Modulus> &moduli, RnsPoly &r);
    /**
     * Fused r_l = (a_l - b_l) * s_l over the first r.numLimbs() limbs
     * (the ModDown-by-P and rescale tails; a/b may carry more limbs).
     */
    void subMulScalar(const RnsPoly &a, const RnsPoly &b,
                      const std::vector<u64> &scalar_per_limb,
                      const std::vector<Modulus> &moduli, RnsPoly &r);
    /** Negacyclic multiply by X^shift (Coeff rep; mulByI uses N/2). */
    void monomialMul(const RnsPoly &a, size_t shift,
                     const std::vector<Modulus> &moduli, RnsPoly &r);
    /**
     * Extend one limb of centered residues mod @p src_q into every
     * limb of @p out (Coeff rep): values above src_q/2 embed as
     * negative. This is the ModRaise embedding and the OF-Limb
     * runtime limb generation (Eq. 12).
     */
    void limbEmbed(const std::vector<u64> &src, const Modulus &src_q,
                   const std::vector<Modulus> &out_moduli, RnsPoly &out);
    /**
     * One key-switch MAC (Alg. 2 line 5, the MADU inner loop):
     * acc_b += digit * evk_b, acc_a += digit * evk_a, where the evk
     * polys span the full [q_0..q_L, p_*] basis and the digit spans
     * [q_0..q_level, p_*]; @p nq = level+1, @p full_nq = L+1 select
     * the matching evk limb. Also tallies the evk operand stream.
     */
    void evkMulAcc(const RnsPoly &digit, const RnsPoly &evk_b,
                   const RnsPoly &evk_a, size_t nq, size_t full_nq,
                   const std::vector<Modulus> &key_moduli,
                   RnsPoly &acc_b, RnsPoly &acc_a);
    /**
     * Fused plaintext multiply-sum, the BSGS giant-step inner sum:
     * out_b = sum_k b_k * pt_k and out_a = sum_k a_k * pt_k over the
     * out_b.numLimbs() limbs of @p moduli (q_0 first; @p tables
     * alike). One job per output limb: an OF-Limb term's limb is
     * embedded from its q_0 residues and forward-NTT'd in per-job
     * scratch, a stored term's limb is read in place, and both
     * products accumulate in 128-bit words that are reduced once per
     * output word (folding every plainMacFoldTerms terms). The result
     * equals the mulEval + add chain bit for bit; neither the
     * plaintexts nor the products are materialized. Records the work
     * under LimbEmbed and NttForward (generated limbs), MulAccEval
     * (the products), and the plaintext operand stream (n words per
     * OF-Limb term, one word per limb word of a stored term).
     */
    void plainMulSum(const std::vector<PlainMulTerm> &terms,
                     const std::vector<Modulus> &moduli,
                     const std::vector<const NttTables *> &tables,
                     RnsPoly &out_b, RnsPoly &out_a);
    /// @}

    /// @name NTT kernels
    /// @{
    void nttForward(RnsPoly &p, const std::vector<NttTables> &tables);
    void nttInverse(RnsPoly &p, const std::vector<NttTables> &tables);
    /** Per-limb table selection (extended/key polys, digit slices). */
    void nttForward(RnsPoly &p,
                    const std::vector<const NttTables *> &tables);
    void nttInverse(RnsPoly &p,
                    const std::vector<const NttTables *> &tables);
    /** Single detached limb (rescale / ModRaise bookkeeping). */
    void nttForwardLimb(u64 *limb, const NttTables &table);
    void nttInverseLimb(u64 *limb, const NttTables &table);
    /// @}

    /// @name Base conversion and automorphism
    /// @{
    /** BConv @p in (Coeff rep over bc.inBase()) to bc.outBase(). */
    RnsPoly bconv(const BaseConverter &bc, const RnsPoly &in);
    /** Apply @p am to every limb of @p p (either representation). */
    RnsPoly automorphism(const Automorphism &am, const RnsPoly &p,
                         const std::vector<Modulus> &moduli);
    /**
     * Fused key-switch digit path (Alg. 1): INTT the Eval-rep digit
     * with @p in_tables, base-convert through @p bc, and forward-NTT
     * each output limb with @p out_tables — one pipelined call with a
     * single scratch buffer instead of three materialized
     * intermediates. Returns the converted limbs in Eval rep.
     */
    RnsPoly nttBconvNtt(const RnsPoly &digit,
                        const std::vector<const NttTables *> &in_tables,
                        const BaseConverter &bc,
                        const std::vector<const NttTables *> &out_tables);
    /// @}

    /// @name Measured execution tallies
    /// @{
    /**
     * Merged snapshot of every caller thread's tally shard. Kernels
     * record into a per-thread shard (no shared-counter contention and
     * no data race under concurrent callers); stats() sums the shards
     * on demand. The snapshot is exact when no kernel is in flight —
     * drain callers first, as the serving runtime does.
     */
    KernelStats stats() const;
    void resetStats();
    /** Operand-stream traffic noted by scheme layers (PlaintextStore). */
    void notePlaintextWords(u64 words);
    /// @}

    /**
     * The backend's buffer recycler. Allocating kernels (bconv,
     * automorphism, nttBconvNtt) draw their outputs and scratch from
     * it, and scheme layers (ckks/evaluator.cpp) route their
     * fully-overwritten temporaries through it; see rns/poly_pool.h
     * for the stale-contents contract. Thread-safe, shared by every
     * thread dispatching through this backend.
     */
    PolyPool &pool() { return pool_; }

  protected:
    /**
     * Execute @p jobs independent jobs (one per limb row, or one per
     * output limb). Scalar and Parallel differ only here.
     */
    virtual void run(size_t jobs,
                     const std::function<void(size_t)> &fn) const = 0;

    /// @name Per-job kernel bodies
    /// The innermost loop bodies every NTT / BConv / evk-MAC /
    /// mulEval / limb-embedding / plaintext-MAC job executes.
    /// Defaults are the reference scalar loops; SimdBackend overrides
    /// them with hand-vectorized kernels that compute the same
    /// arithmetic lane-wise (bit-identical by construction). The
    /// compiler does not vectorize a loop with a 64x64->128-bit
    /// product or a per-word reduction, so mulEval and limbEmbed get
    /// bodies here too; the other element-wise kernels stay plain
    /// scalar loops.
    /// @{
    /** One limb of the lazy forward NTT (in place). */
    virtual void nttForwardLimbKernel(u64 *limb,
                                      const NttTables &table) const;
    /** One limb of the lazy inverse NTT (in place). */
    virtual void nttInverseLimbKernel(u64 *limb,
                                      const NttTables &table) const;
    /** One fused BConv scale+MAC tile (convertTile contract;
     *  @p scratch holds >= BaseConverter::kTileWords words). */
    virtual void bconvTileKernel(const BaseConverter &bc,
                                 const RnsPoly &in, size_t c0, size_t c1,
                                 u64 *scratch, RnsPoly &out) const;
    /** One limb of the evk MAC: ab += d * kb, aa += d * ka mod m. */
    virtual void evkMulAccLimbKernel(const Modulus &m, const u64 *d,
                                     const u64 *kb, const u64 *ka,
                                     u64 *ab, u64 *aa, size_t n) const;
    /** One limb of mulEval: r = a * b mod m (r may alias a or b). */
    virtual void mulEvalLimbKernel(const Modulus &m, const u64 *a,
                                   const u64 *b, u64 *r, size_t n) const;
    /** One limb of limbEmbed: dst = (src centered mod src_q) mod m. */
    virtual void limbEmbedKernel(const u64 *src, size_t n, u64 src_q,
                                 const Modulus &m, u64 *dst) const;
    /**
     * One limb of the plaintext MAC: @p acc holds four rows of n
     * words, the 128-bit accumulators (lo row, hi row) of b then of
     * a; they gain pt * b and pt * a (no reduction).
     */
    virtual void plainMacLimbKernel(const u64 *pt, const u64 *b,
                                    const u64 *a, u64 *acc,
                                    size_t n) const;
    /** Reduce plainMacLimbKernel's accumulators mod @p m into
     *  @p out_b / @p out_a, which may alias the two lo rows. */
    virtual void plainReduceLimbKernel(const Modulus &m, const u64 *acc,
                                       size_t n, u64 *out_b,
                                       u64 *out_a) const;
    /// @}

    /** Tally one kernel call into the calling thread's shard. */
    void recordStats(KernelOp op, u64 limbs, u64 words, u64 mults);
    /** Tally evk operand-stream words (EvkMulAcc). */
    void noteEvkWords(u64 words);

  private:
    struct StatsShard;
    ThreadShards<StatsShard> shards_;
    PolyPool pool_;
};

/** The reference engine: serial execution of every job. */
class ScalarBackend final : public KernelBackend
{
  public:
    const char *name() const override { return "scalar"; }
    BackendKind kind() const override { return BackendKind::Scalar; }
    size_t threads() const override { return 1; }

  protected:
    void run(size_t jobs,
             const std::function<void(size_t)> &fn) const override;
};

struct SimdKernels;

/**
 * Hand-vectorized engine: serial over limb jobs like ScalarBackend,
 * but each NTT / BConv-tile / evk-MAC / mulEval / limb-embedding /
 * plaintext-MAC job body runs the AVX-512 (IFMA52 or plain) or AVX2
 * kernels from rns/simd_kernels.cpp, picked at construction from the
 * host CPU (capped by @p max_tier and by ARK_SIMD_TIER). On hosts
 * with no vector ISA — or for transforms too small to fill a vector —
 * every call falls back to the scalar loop body, never aborts, so
 * ARK_BACKEND=simd is safe everywhere.
 */
class SimdBackend final : public KernelBackend
{
  public:
    /** @param max_tier cap on the dispatched ISA tier (the default
     *  caps nothing; tests pass lower tiers to pin a code path). */
    explicit SimdBackend(SimdTier max_tier = kMaxSimdTier);

    const char *name() const override { return "simd"; }
    BackendKind kind() const override { return BackendKind::Simd; }
    size_t threads() const override { return 1; }

    /** The ISA tier actually dispatched after host/env clamping. */
    SimdTier tier() const;

  protected:
    void run(size_t jobs,
             const std::function<void(size_t)> &fn) const override;

    void nttForwardLimbKernel(u64 *limb,
                              const NttTables &table) const override;
    void nttInverseLimbKernel(u64 *limb,
                              const NttTables &table) const override;
    void bconvTileKernel(const BaseConverter &bc, const RnsPoly &in,
                         size_t c0, size_t c1, u64 *scratch,
                         RnsPoly &out) const override;
    void evkMulAccLimbKernel(const Modulus &m, const u64 *d,
                             const u64 *kb, const u64 *ka, u64 *ab,
                             u64 *aa, size_t n) const override;
    void mulEvalLimbKernel(const Modulus &m, const u64 *a, const u64 *b,
                           u64 *r, size_t n) const override;
    void limbEmbedKernel(const u64 *src, size_t n, u64 src_q,
                         const Modulus &m, u64 *dst) const override;
    void plainMacLimbKernel(const u64 *pt, const u64 *b, const u64 *a,
                            u64 *acc, size_t n) const override;
    void plainReduceLimbKernel(const Modulus &m, const u64 *acc, size_t n,
                               u64 *out_b, u64 *out_a) const override;

  private:
    const SimdKernels &kernels_;
};

class ThreadPool;

/** Limb-parallel engine over a work-stealing thread pool. */
class ParallelBackend final : public KernelBackend
{
  public:
    /** @param num_threads pool workers; 0 = hardware concurrency. */
    explicit ParallelBackend(size_t num_threads = 0);
    ~ParallelBackend() override;

    const char *name() const override { return "parallel"; }
    BackendKind kind() const override { return BackendKind::Parallel; }
    size_t threads() const override;

  protected:
    void run(size_t jobs,
             const std::function<void(size_t)> &fn) const override;

  private:
    std::unique_ptr<ThreadPool> pool_;
};

/** Build a backend of @p kind (@p num_threads: 0 = hardware). */
std::unique_ptr<KernelBackend> makeKernelBackend(BackendKind kind,
                                                 size_t num_threads = 0);

/**
 * Process-wide backend used by the RnsPoly free-function wrappers
 * (callers without a CkksContext). Selected by ARK_BACKEND /
 * ARK_THREADS at first use; defaults to the scalar engine.
 */
KernelBackend &processBackend();

} // namespace ark
