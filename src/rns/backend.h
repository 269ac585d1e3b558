/**
 * @file
 * The kernel engine: every limb-level kernel of the library —
 * element-wise limb ops, (I)NTT, BConv, automorphism, the evk MAC, and
 * the fused INTT->BConv->NTT key-switch digit path (Alg. 1) — executes
 * through one KernelBackend.
 *
 * The scheme layers (ckks/, boot/) never touch kernel loops directly;
 * they dispatch through the KernelBackend owned by their CkksContext.
 * That seam is where per-kernel invocation counts and word-traffic
 * tallies (KernelStats) are recorded for core/traffic_analyzer and
 * sim/simulator to consume.
 *
 * The engine has two independent axes, as ARK keeps its
 * data-distribution policy apart from each functional unit's datapath:
 *  - the executor maps a kernel's limb (or tile) jobs onto threads:
 *    serial on the calling thread, or a batch-claiming ThreadPool;
 *  - the kernel table (rns/simd_kernels.h) supplies the per-job bodies:
 *    scalar, avx2, avx512 or avx512ifma, picked by CPUID.
 * Every table entry computes the scalar reference arithmetic bit for
 * bit and the jobs are independent, so every (executor x table) cell
 * is bit-identical (tests/test_backend_parity*.cpp enforce it).
 */

#pragma once

#include <memory>
#include <string>
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

struct SimdKernels;
class ThreadPool;

/** Engine executing all limb-level kernels; owned by a CkksContext. */
class KernelBackend
{
  public:
    /**
     * Serial executor over the best kernel table the host runs, capped
     * by @p max_tier and by ARK_SIMD_TIER (tests pass lower tiers to
     * pin a table).
     */
    explicit KernelBackend(SimdTier max_tier = kMaxSimdTier);
    /** The same table, with jobs spread over a ThreadPool of
     *  @p pool_threads workers (0 = hardware concurrency). */
    KernelBackend(SimdTier max_tier, size_t pool_threads);
    ~KernelBackend();

    KernelBackend(const KernelBackend &) = delete;
    KernelBackend &operator=(const KernelBackend &) = delete;

    /** "<executor>/<tier>", e.g. "serial/avx512" or "pool/scalar". */
    const char *name() const { return name_.c_str(); }
    /** Pool workers applied to a kernel (1 when serial). */
    size_t threads() const;
    /** The kernel table's tier after host/env clamping. */
    SimdTier tier() const;

    /// @name Element-wise limb kernels
    /// @{
    void add(const RnsPoly &a, const RnsPoly &b,
             const std::vector<Modulus> &moduli, RnsPoly &r);
    void sub(const RnsPoly &a, const RnsPoly &b,
             const std::vector<Modulus> &moduli, RnsPoly &r);
    void neg(const RnsPoly &a, const std::vector<Modulus> &moduli,
             RnsPoly &r);
    /** r = a * b pointwise; both must be in Eval representation. */
    void mulEval(const RnsPoly &a, const RnsPoly &b,
                 const std::vector<Modulus> &moduli, RnsPoly &r);
    /** r += a * b pointwise (Eval rep). */
    void mulAccEval(const RnsPoly &a, const RnsPoly &b,
                    const std::vector<Modulus> &moduli, RnsPoly &r);
    void mulScalar(const RnsPoly &a,
                   const std::vector<u64> &scalar_per_limb,
                   const std::vector<Modulus> &moduli, RnsPoly &r);
    /**
     * r[l][i] = a[l][i] + scalar_per_limb[l] for every word i of every
     * limb l — the scalar is added to ALL N positions of its limb, not
     * just coefficient 0. CAdd relies on this: a constant polynomial
     * is constant across the evaluation domain, so adding the
     * per-limb residue of a scalar to every Eval-rep word adds that
     * scalar to every message slot.
     */
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
    /**
     * r = a * X^{N/2}, i.e. every slot times i, in Eval rep over
     * @p tables' moduli. The NTT of X^{N/2} is psi^{N/2} on words
     * [0, N/2) of every limb and -psi^{N/2} on words [N/2, N) (the
     * evaluation point of word j is psi^{2 bitrev(j) + 1}, and the top
     * bit of j is the low bit of bitrev(j)), so this is one Shoup pass
     * with one constant per half-limb.
     */
    void mulByI(const RnsPoly &a, const std::vector<NttTables> &tables,
                RnsPoly &r);
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

  private:
    /**
     * Execute @p jobs independent jobs (one per limb row, or one per
     * output tile): a plain loop when serial, else the pool.
     */
    template <typename Fn>
    void run(size_t jobs, const Fn &fn) const;

    /** Tally one kernel call into the calling thread's shard. */
    void recordStats(KernelOp op, u64 limbs, u64 words, u64 mults);
    /** Tally evk operand-stream words (EvkMulAcc). */
    void noteEvkWords(u64 words);

    struct StatsShard;
    ThreadShards<StatsShard> shards_;
    PolyPool pool_;
    const SimdKernels &kernels_;
    std::unique_ptr<ThreadPool> executor_; ///< null = serial
    std::string name_;
};

/** The serial x best-table cell, by the name arkbench/src/main.cpp
 *  constructs to stamp the dispatched tier. */
using SimdBackend = KernelBackend;

/**
 * Build the engine cell @p kind names: scalar = serial x scalar table,
 * simd = serial x best table, parallel = pool(@p num_threads; 0 =
 * hardware) x best table. The table cap of ARK_SIMD_TIER applies to
 * simd and parallel.
 */
std::unique_ptr<KernelBackend> makeKernelBackend(BackendKind kind,
                                                 size_t num_threads = 0);

} // namespace ark
