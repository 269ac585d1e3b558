/**
 * @file
 * Parity of the fused plaintext multiply-sum (KernelBackend::
 * plainMulSum) and of the BSGS transforms built on it against the
 * explicit path they replace: materialize each plaintext
 * (limbEmbed + NTT, or the stored limbs), mulEval / mulPlain it into
 * the ciphertext, and add the products.
 *
 * Covers every engine cell (serial and a pool of 4, times each kernel
 * table tier the host runs), both plaintext modes, strided matrices,
 * zero diagonals and empty giant steps, and sums long enough over
 * 60-bit primes that the 128-bit accumulators must fold. The work the
 * fused kernel records (NTT and MAD mults, embedded words, plaintext
 * stream) must equal what the explicit path records, so measured-stats
 * consumers price it unchanged.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "boot/linear_transform.h"
#include "ckks/encryptor.h"
#include "rns/backend.h"
#include "rns/primes.h"
#include "serve/workload.h"

namespace ark {
namespace {

// ---------------------------------------------------------------------------
// Direct kernel calls
// ---------------------------------------------------------------------------

struct Engine
{
    std::string name;
    std::unique_ptr<KernelBackend> backend;
};

/** Every (executor x kernel table) cell the host runs: each tier,
 *  serial and on a pool of 4. */
std::vector<Engine>
allEngines()
{
    std::vector<Engine> out;
    for (SimdTier tier : {SimdTier::Scalar, SimdTier::Avx2,
                          SimdTier::Avx512, SimdTier::Avx512Ifma}) {
        auto serial = std::make_unique<KernelBackend>(tier);
        if (serial->tier() != tier)
            continue;
        out.push_back({std::string("serial-") + simdTierName(tier),
                       std::move(serial)});
        out.push_back({std::string("pool4-") + simdTierName(tier),
                       std::make_unique<KernelBackend>(tier, 4)});
    }
    return out;
}

/** The work measured-stats consumers price must not move. */
void
expectSamePricedWork(const KernelStats &got, const KernelStats &want)
{
    for (KernelOp op : {KernelOp::NttForward, KernelOp::LimbEmbed}) {
        EXPECT_EQ(got.at(op).limbs, want.at(op).limbs) << kernelOpName(op);
        EXPECT_EQ(got.at(op).words, want.at(op).words) << kernelOpName(op);
        EXPECT_EQ(got.at(op).mults, want.at(op).mults) << kernelOpName(op);
    }
    EXPECT_EQ(got.at(KernelOp::NttInverse).mults,
              want.at(KernelOp::NttInverse).mults);
    EXPECT_EQ(got.at(KernelOp::MulEval).mults +
                  got.at(KernelOp::MulAccEval).mults,
              want.at(KernelOp::MulEval).mults +
                  want.at(KernelOp::MulAccEval).mults);
    EXPECT_EQ(got.plaintext_words, want.plaintext_words);
}

class PlainMulSumKernel : public ::testing::TestWithParam<size_t>
{
  protected:
    static constexpr size_t kLimbs = 3;

    void SetUp() override
    {
        degree_ = GetParam();
        for (u64 q : generatePrimes(60, kLimbs, degree_)) {
            moduli_.emplace_back(q);
            tables_.emplace_back(degree_, Modulus(q));
        }
        for (const auto &t : tables_)
            table_ptrs_.push_back(&t);
    }

    RnsPoly randomPoly(size_t limbs, Rep rep, Rng &rng) const
    {
        RnsPoly p(degree_, limbs, rep);
        for (size_t l = 0; l < limbs; ++l) {
            auto v = rng.uniformVector(degree_,
                                       moduli_[l % kLimbs].value());
            std::copy(v.begin(), v.end(), p.limb(l));
        }
        return p;
    }

    /** Terms past every modulus's fold bound, so the sum must fold. */
    size_t foldingTermCount() const
    {
        size_t fold = 0;
        for (const Modulus &q : moduli_)
            fold = std::max(fold, plainMacFoldTerms(q));
        return fold + 7;
    }

    /**
     * The explicit path on a fresh scalar engine: materialize each
     * plaintext, multiply, add. Also returns that engine's stats, with
     * the plaintext stream noted as PlaintextStore::get notes it.
     */
    std::pair<RnsPoly, RnsPoly>
    reference(const std::vector<PlainMulTerm> &terms,
              KernelStats &stats) const
    {
        KernelBackend kb(SimdTier::Scalar);
        RnsPoly sum_b(degree_, kLimbs, Rep::Eval);
        RnsPoly sum_a(degree_, kLimbs, Rep::Eval);
        RnsPoly prod(degree_, kLimbs, Rep::Eval);
        for (const PlainMulTerm &t : terms) {
            RnsPoly pt(degree_, kLimbs, Rep::Coeff);
            if (t.pt->rep() == Rep::Coeff) {
                std::vector<u64> src(t.pt->limb(0), t.pt->limb(0) + degree_);
                kb.limbEmbed(src, moduli_[0], moduli_, pt);
                kb.nttForward(pt, table_ptrs_);
                kb.notePlaintextWords(degree_);
            } else {
                pt = *t.pt;
                pt.resizeLimbs(kLimbs);
                kb.notePlaintextWords(kLimbs * degree_);
            }
            kb.mulEval(*t.b, pt, moduli_, prod);
            kb.add(sum_b, prod, moduli_, sum_b);
            kb.mulEval(*t.a, pt, moduli_, prod);
            kb.add(sum_a, prod, moduli_, sum_a);
        }
        stats = kb.stats();
        return {std::move(sum_b), std::move(sum_a)};
    }

    void expectParity(const std::vector<PlainMulTerm> &terms) const
    {
        KernelStats ref_stats;
        const auto [ref_b, ref_a] = reference(terms, ref_stats);
        for (Engine &e : allEngines()) {
            SCOPED_TRACE(e.name);
            RnsPoly out_b(degree_, kLimbs, Rep::Eval);
            RnsPoly out_a(degree_, kLimbs, Rep::Eval);
            e.backend->plainMulSum(terms, moduli_, table_ptrs_, out_b, out_a);
            for (size_t l = 0; l < kLimbs; ++l) {
                for (size_t i = 0; i < degree_; ++i) {
                    ASSERT_EQ(out_b.limb(l)[i], ref_b.limb(l)[i])
                        << "b limb " << l << " word " << i;
                    ASSERT_EQ(out_a.limb(l)[i], ref_a.limb(l)[i])
                        << "a limb " << l << " word " << i;
                }
            }
            expectSamePricedWork(e.backend->stats(), ref_stats);
        }
    }

    size_t degree_ = 0;
    std::vector<Modulus> moduli_;
    std::vector<NttTables> tables_;
    std::vector<const NttTables *> table_ptrs_;
};

/** Random OF-Limb and stored terms, interleaved, past the fold bound. */
TEST_P(PlainMulSumKernel, MixedTermsFoldBitIdentically)
{
    const size_t k = foldingTermCount();
    ASSERT_GT(k, 256u);
    Rng rng(0x5EED + degree_);
    std::vector<RnsPoly> polys;
    polys.reserve(3 * k);
    std::vector<PlainMulTerm> terms;
    for (size_t t = 0; t < k; ++t) {
        polys.push_back(randomPoly(kLimbs, Rep::Eval, rng));
        polys.push_back(randomPoly(kLimbs, Rep::Eval, rng));
        // OF-Limb: centered q_0 residues; stored: one limb more than
        // the output, which the kernel must drop.
        polys.push_back(t % 2 == 0 ? randomPoly(1, Rep::Coeff, rng)
                                   : randomPoly(kLimbs + 1, Rep::Eval, rng));
        const size_t at = polys.size();
        terms.push_back({&polys[at - 3], &polys[at - 2], &polys[at - 1]});
    }
    expectParity(terms);
}

/** Every operand q - 1: unfolded, the 128-bit sums would overflow. */
TEST_P(PlainMulSumKernel, MaximalOperandsFoldBitIdentically)
{
    const size_t k = foldingTermCount();
    RnsPoly max(degree_, kLimbs, Rep::Eval);
    for (size_t l = 0; l < kLimbs; ++l)
        std::fill(max.limb(l), max.limb(l) + degree_,
                  moduli_[l].value() - 1);
    std::vector<PlainMulTerm> terms(k, PlainMulTerm{&max, &max, &max});
    expectParity(terms);
}

INSTANTIATE_TEST_SUITE_P(Degrees, PlainMulSumKernel,
                         ::testing::Values(size_t(4), size_t(64)),
                         [](const auto &info) {
                             return "n" + std::to_string(info.param);
                         });

TEST(PlainMulSumFold, BoundCoversSixtyBitPrimes)
{
    // generatePrimes balances "60-bit" primes around 2^60; the 256
    // guarantee is for those below it (products below 2^120).
    size_t below = 0;
    for (u64 q : generatePrimes(60, 8, 1024)) {
        if (q < (1ULL << 60)) {
            EXPECT_GE(plainMacFoldTerms(Modulus(q)), 256u);
            ++below;
        }
    }
    EXPECT_GT(below, 0u);
    // The widest supported modulus still folds every few terms.
    const Modulus wide(generatePrimes(61, 1, 1024)[0]);
    EXPECT_GE(plainMacFoldTerms(wide), 64u);
}

// ---------------------------------------------------------------------------
// LinearTransform schedules against the explicit get + mulPlain + add path
// ---------------------------------------------------------------------------

constexpr size_t kSlots = 32;

/** Mass on every stride-th diagonal except @p zero ones (grid units). */
SlotMatrix
matrixWithZeroDiagonals(size_t stride, const std::vector<size_t> &zero,
                        u64 seed)
{
    Rng rng(seed);
    SlotMatrix m;
    m.n = kSlots;
    m.data.assign(kSlots * kSlots, Complex(0, 0));
    for (size_t u = 0; u * stride < kSlots; ++u) {
        if (std::find(zero.begin(), zero.end(), u) != zero.end())
            continue;
        for (size_t r = 0; r < kSlots; ++r)
            m.at(r, (r + u * stride) % kSlots) =
                Complex(rng.uniformReal() * 2 - 1,
                        rng.uniformReal() * 2 - 1);
    }
    return m;
}

/**
 * The BSGS transform as it ran before the fused kernel: every nonzero
 * diagonal is materialized with PlaintextStore::get, multiplied with
 * mulPlain and summed with add; the rotations are the schedules' own.
 */
Ciphertext
explicitApply(const CkksEvaluator &eval, const LinearTransform &lt,
              const Ciphertext &ct, KeySchedule sched, KeyCache &keys,
              size_t stride, const std::vector<bool> &nonzero,
              size_t &pmults)
{
    const size_t bs = lt.babySteps(), gs = lt.giantSteps();
    std::vector<Ciphertext> babies{ct};
    if (sched == KeySchedule::Baseline) {
        std::vector<i64> amounts;
        std::vector<const EvalKey *> evks;
        for (size_t i = 1; i < bs; ++i) {
            amounts.push_back(static_cast<i64>(i * stride));
            evks.push_back(&keys.rotation(amounts.back()));
        }
        for (auto &r : eval.rotateHoisted(ct, amounts, evks))
            babies.push_back(std::move(r));
    } else {
        const i64 amt = static_cast<i64>(stride);
        for (size_t i = 1; i < bs; ++i)
            babies.push_back(
                eval.rotate(babies.back(), amt, keys.rotation(amt)));
    }

    std::vector<std::unique_ptr<Ciphertext>> inner(gs);
    for (size_t j = 0; j < gs; ++j) {
        for (size_t i = 0; i < bs; ++i) {
            if (!nonzero[j * bs + i])
                continue;
            Ciphertext term = eval.mulPlain(
                babies[i], lt.plaintexts().get(j * bs + i, ct.level()));
            ++pmults;
            inner[j] = std::make_unique<Ciphertext>(
                inner[j] ? eval.add(*inner[j], term) : std::move(term));
        }
    }

    std::unique_ptr<Ciphertext> acc;
    if (sched == KeySchedule::Baseline) {
        for (size_t j = 0; j < gs; ++j) {
            if (!inner[j])
                continue;
            Ciphertext step = *inner[j];
            if (j > 0) {
                const i64 g = static_cast<i64>(j * bs * stride);
                step = eval.rotate(step, g, keys.rotation(g));
            }
            acc = std::make_unique<Ciphertext>(
                acc ? eval.add(*acc, step) : std::move(step));
        }
    } else {
        const i64 g = static_cast<i64>(bs * stride);
        for (size_t j = gs; j-- > 0;) {
            if (acc)
                *acc = eval.rotate(*acc, g, keys.rotation(g));
            if (inner[j])
                acc = std::make_unique<Ciphertext>(
                    acc ? eval.add(*acc, *inner[j]) : *inner[j]);
        }
    }
    return eval.rescale(*acc);
}

struct LtCase
{
    const char *name;
    size_t stride;
    std::vector<size_t> zero; ///< zero diagonals, in stride units
};

TEST(PlainMulSumTransforms, SchedulesMatchExplicitPathOnEveryEngine)
{
    // Dense: 32 diagonals on a 6 x 6 grid, giant step 1 (diagonals
    // 6..11) entirely zero plus two lone zeros. Strided: 16 diagonals
    // on a 4 x 4 grid, giant step 1 (4..7) zero plus one lone zero.
    const std::vector<LtCase> cases = {
        {"dense", 1, {3, 6, 7, 8, 9, 10, 11, 20}},
        {"strided", 2, {1, 4, 5, 6, 7}},
    };

    // One key set and input for every engine: keys are plain data, so
    // contexts of the same parameters share them.
    const CkksParams params = CkksParams::testTiny();
    CkksContext key_ctx(params);
    CkksEncoder key_enc(key_ctx);
    Rng rng(4242);
    KeyGenerator keygen(key_ctx, rng);
    const SecretKey sk = keygen.secretKey();
    CkksEncryptor encryptor(key_ctx, rng);
    KeyCache keys(keygen, sk, key_ctx.degree());
    std::vector<Complex> z(kSlots);
    for (auto &x : z)
        x = Complex(rng.uniformReal() - 0.5, rng.uniformReal() - 0.5);
    Ciphertext ct =
        encryptor.encryptSymmetric(key_enc.encode(z, key_ctx.maxLevel()), sk);
    ct.slots = kSlots;

    // Checksums of the first engine (scalar), per case/mode/schedule.
    std::map<std::string, u64> first;
    for (BackendKind kind :
         {BackendKind::Scalar, BackendKind::Parallel, BackendKind::Simd}) {
        CkksParams p = params;
        p.backend = kind;
        p.backend_threads = 4;
        CkksContext ctx(p);
        CkksEncoder enc(ctx);
        CkksEvaluator eval(ctx);
        KernelBackend &kb = ctx.backend();
        for (const LtCase &c : cases) {
            const SlotMatrix m = matrixWithZeroDiagonals(c.stride, c.zero, 99);
            for (PlaintextMode mode :
                 {PlaintextMode::Full, PlaintextMode::OFLimb}) {
                LinearTransform lt(ctx, enc, m, c.stride, mode);
                const size_t grid = kSlots / c.stride;
                std::vector<bool> nonzero(lt.babySteps() * lt.giantSteps());
                size_t live = 0;
                for (size_t u = 0; u < nonzero.size(); ++u) {
                    nonzero[u] = u < grid &&
                                 std::find(c.zero.begin(), c.zero.end(), u) ==
                                     c.zero.end();
                    live += nonzero[u];
                }
                for (KeySchedule sched :
                     {KeySchedule::Baseline, KeySchedule::MinKS}) {
                    const std::string tag =
                        std::string(c.name) +
                        (mode == PlaintextMode::Full ? "/full" : "/oflimb") +
                        (sched == KeySchedule::Baseline ? "/baseline"
                                                        : "/minks");
                    SCOPED_TRACE(std::string(kb.name()) + " " + tag);
                    // Keys generate through key_ctx, so this engine's
                    // stats windows see only the transforms.
                    kb.resetStats();
                    LtStats st;
                    const Ciphertext fused =
                        lt.apply(eval, ct, sched, keys, &st);
                    const KernelStats fused_stats = kb.stats();

                    kb.resetStats();
                    size_t pmults = 0;
                    const Ciphertext ref = explicitApply(
                        eval, lt, ct, sched, keys, c.stride, nonzero, pmults);
                    const KernelStats ref_stats = kb.stats();

                    const u64 sum = ciphertextChecksum(fused);
                    EXPECT_EQ(sum, ciphertextChecksum(ref));
                    EXPECT_EQ(fused.scale, ref.scale);
                    EXPECT_EQ(fused.level(), ref.level());
                    EXPECT_EQ(st.pmults, live);
                    EXPECT_EQ(pmults, live);
                    expectSamePricedWork(fused_stats, ref_stats);
                    auto [it, inserted] = first.emplace(tag, sum);
                    if (!inserted) {
                        EXPECT_EQ(sum, it->second) << "differs from scalar";
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace ark
