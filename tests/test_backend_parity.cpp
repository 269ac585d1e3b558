/**
 * @file
 * Bit-exactness of the parallel and simd engine cells against the
 * scalar one for every kernel, across several (N, L) shapes,
 * including the fused nttBconvNtt key-switch digit path — plus sanity
 * checks that the engines record KernelStats for what they executed.
 *
 * Also gates the lazy-reduction kernel pass: the Harvey lazy NTT must
 * round-trip and match the strict reference transforms across every
 * parameter-set prime width, the fused cache-blocked BConv must equal
 * the two-stage pipeline, and kernels running over recycled
 * (stale-content) pool buffers must be bit-identical to fresh
 * allocations on both backends.
 *
 * The EngineCellParityTest suite sweeps every (executor x kernel table)
 * cell — serial and a pool of 4, times each ISA tier (skipping tiers
 * the host cannot run) — against serial x scalar, including the
 * sub-vector-degree and wide-modulus fallbacks onto the scalar
 * transforms, the q < 2^50 bound of the IFMA tier's 52-bit kernels
 * (the BConv tile's on in-bases of mixed widths too), and the
 * element-wise entries (add, sub, MAC, constant product, mulByI).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "ckks/context.h"
#include "ckks/params.h"
#include "common/math_util.h"
#include "common/random.h"
#include "rns/backend.h"
#include "rns/cpu_features.h"
#include "rns/poly_pool.h"
#include "rns/primes.h"
#include "rns/simd_kernels.h"
#include "support/reference_kernels.h"

namespace ark {
namespace {

struct Shape
{
    size_t degree;
    size_t limbs;
};

class BackendParityTest : public ::testing::TestWithParam<Shape>
{
  protected:
    void SetUp() override
    {
        degree_ = GetParam().degree;
        limbs_ = GetParam().limbs;
        auto qs = generatePrimes(40, limbs_, degree_);
        for (u64 q : qs) {
            moduli_.emplace_back(q);
            tables_.emplace_back(degree_, Modulus(q));
        }
        for (auto &t : tables_)
            table_ptrs_.push_back(&t);

        scalar_ = makeKernelBackend(BackendKind::Scalar);
        parallel_ = makeKernelBackend(BackendKind::Parallel, 4);
        simd_ = makeKernelBackend(BackendKind::Simd);
    }

    RnsPoly randomPoly(Rep rep, u64 seed, size_t limbs = 0) const
    {
        if (limbs == 0)
            limbs = limbs_;
        Rng rng(seed);
        RnsPoly p(degree_, limbs, rep);
        for (size_t l = 0; l < limbs; ++l) {
            auto v = rng.uniformVector(degree_,
                                       moduli_[l % moduli_.size()].value());
            std::copy(v.begin(), v.end(), p.limb(l));
        }
        return p;
    }

    static void expectIdentical(const RnsPoly &a, const RnsPoly &b)
    {
        ASSERT_EQ(a.numLimbs(), b.numLimbs());
        ASSERT_EQ(a.degree(), b.degree());
        EXPECT_EQ(a.rep(), b.rep());
        for (size_t l = 0; l < a.numLimbs(); ++l) {
            for (size_t i = 0; i < a.degree(); ++i) {
                ASSERT_EQ(a.limb(l)[i], b.limb(l)[i])
                    << "limb " << l << " word " << i;
            }
        }
    }

    size_t degree_ = 0;
    size_t limbs_ = 0;
    std::vector<Modulus> moduli_;
    std::vector<NttTables> tables_;
    std::vector<const NttTables *> table_ptrs_;
    std::unique_ptr<KernelBackend> scalar_;
    std::unique_ptr<KernelBackend> parallel_;
    std::unique_ptr<KernelBackend> simd_; ///< best tier the host runs
};

TEST_P(BackendParityTest, ElementwiseKernels)
{
    auto a = randomPoly(Rep::Eval, 1);
    auto b = randomPoly(Rep::Eval, 2);
    std::vector<u64> scalars;
    for (auto &m : moduli_)
        scalars.push_back(m.value() / 5 + 1);

    auto check2 = [&](auto &&op) {
        RnsPoly rs(degree_, limbs_, Rep::Eval);
        RnsPoly rp(degree_, limbs_, Rep::Eval);
        RnsPoly rv(degree_, limbs_, Rep::Eval);
        op(*scalar_, rs);
        op(*parallel_, rp);
        op(*simd_, rv);
        expectIdentical(rs, rp);
        expectIdentical(rs, rv);
    };

    check2([&](KernelBackend &kb, RnsPoly &r) { kb.add(a, b, moduli_, r); });
    check2([&](KernelBackend &kb, RnsPoly &r) { kb.sub(a, b, moduli_, r); });
    check2([&](KernelBackend &kb, RnsPoly &r) { kb.neg(a, moduli_, r); });
    check2([&](KernelBackend &kb, RnsPoly &r) {
        kb.mulEval(a, b, moduli_, r);
    });
    check2([&](KernelBackend &kb, RnsPoly &r) {
        kb.mulScalar(a, scalars, moduli_, r);
    });
    check2([&](KernelBackend &kb, RnsPoly &r) {
        kb.addScalar(a, scalars, moduli_, r);
    });
    check2([&](KernelBackend &kb, RnsPoly &r) {
        kb.subMulScalar(a, b, scalars, moduli_, r);
    });

    // MAC accumulates into the result: seed both sides identically.
    RnsPoly acc_s = randomPoly(Rep::Eval, 3);
    RnsPoly acc_p = acc_s;
    RnsPoly acc_v = acc_s;
    scalar_->mulAccEval(a, b, moduli_, acc_s);
    parallel_->mulAccEval(a, b, moduli_, acc_p);
    simd_->mulAccEval(a, b, moduli_, acc_v);
    expectIdentical(acc_s, acc_p);
    expectIdentical(acc_s, acc_v);
}

/** mulByI against the coefficient-domain path it replaces (INTT, the
 *  negacyclic shift by N/2, NTT) on the scalar engine, and every engine
 *  against the scalar one; then the limb embedding across engines. */
TEST_P(BackendParityTest, MulByIAndLimbEmbed)
{
    auto a = randomPoly(Rep::Eval, 4);
    RnsPoly ref = a;
    scalar_->nttInverse(ref, tables_);
    RnsPoly shifted(degree_, limbs_, Rep::Coeff);
    const size_t half = degree_ / 2;
    for (size_t l = 0; l < limbs_; ++l) {
        const u64 q = moduli_[l].value();
        const u64 *src = ref.limb(l);
        u64 *dst = shifted.limb(l);
        for (size_t k = 0; k < half; ++k) {
            dst[k + half] = src[k];
            dst[k] = src[k + half] == 0 ? 0 : q - src[k + half];
        }
    }
    scalar_->nttForward(shifted, tables_);

    RnsPoly rs(degree_, limbs_, Rep::Eval);
    RnsPoly rp(degree_, limbs_, Rep::Eval);
    RnsPoly rv(degree_, limbs_, Rep::Eval);
    scalar_->mulByI(a, tables_, rs);
    parallel_->mulByI(a, tables_, rp);
    simd_->mulByI(a, tables_, rv);
    expectIdentical(rs, shifted);
    expectIdentical(rs, rp);
    expectIdentical(rs, rv);

    Rng rng(5);
    auto src = rng.uniformVector(degree_, moduli_[0].value());
    RnsPoly es(degree_, limbs_, Rep::Coeff);
    RnsPoly ep(degree_, limbs_, Rep::Coeff);
    RnsPoly ev(degree_, limbs_, Rep::Coeff);
    scalar_->limbEmbed(src, moduli_[0], moduli_, es);
    parallel_->limbEmbed(src, moduli_[0], moduli_, ep);
    simd_->limbEmbed(src, moduli_[0], moduli_, ev);
    expectIdentical(es, ep);
    expectIdentical(es, ev);
}

TEST_P(BackendParityTest, NttRoundTrip)
{
    auto a = randomPoly(Rep::Coeff, 6);
    auto original = a;
    auto b = a;
    auto c = a;

    scalar_->nttForward(a, table_ptrs_);
    parallel_->nttForward(b, table_ptrs_);
    simd_->nttForward(c, table_ptrs_);
    expectIdentical(a, b);
    expectIdentical(a, c);

    scalar_->nttInverse(a, table_ptrs_);
    parallel_->nttInverse(b, table_ptrs_);
    simd_->nttInverse(c, table_ptrs_);
    expectIdentical(a, b);
    expectIdentical(a, c);
    expectIdentical(a, original);
}

TEST_P(BackendParityTest, BConvMatchesScalarAndReference)
{
    const size_t nb = limbs_;
    auto pc = generatePrimes(41, 3, degree_);
    std::vector<Modulus> out_base;
    for (u64 p : pc)
        out_base.emplace_back(p);
    BaseConverter bc(moduli_, out_base);

    auto in = randomPoly(Rep::Coeff, 7, nb);
    RnsPoly rs = scalar_->bconv(bc, in);
    RnsPoly rp = parallel_->bconv(bc, in);
    RnsPoly rv = simd_->bconv(bc, in);
    expectIdentical(rs, rp);
    expectIdentical(rs, rv);
    // Cross-check against the two-stage reference pipeline.
    expectIdentical(rs, ref::bconvTwoStage(bc, in));
}

TEST_P(BackendParityTest, AutomorphismBothReps)
{
    const u64 g = galoisElt(3, degree_);
    Automorphism am(g, degree_);
    for (Rep rep : {Rep::Coeff, Rep::Eval}) {
        auto p = randomPoly(rep, 8);
        RnsPoly rs = scalar_->automorphism(am, p, moduli_);
        RnsPoly rp = parallel_->automorphism(am, p, moduli_);
        RnsPoly rv = simd_->automorphism(am, p, moduli_);
        expectIdentical(rs, rp);
        expectIdentical(rs, rv);
    }
}

TEST_P(BackendParityTest, FusedNttBconvNttMatchesUnfusedPipeline)
{
    auto pc = generatePrimes(41, 4, degree_);
    std::vector<Modulus> out_base;
    std::vector<NttTables> out_tables;
    std::vector<const NttTables *> out_ptrs;
    for (u64 p : pc) {
        out_base.emplace_back(p);
        out_tables.emplace_back(degree_, Modulus(p));
    }
    for (auto &t : out_tables)
        out_ptrs.push_back(&t);
    BaseConverter bc(moduli_, out_base);

    auto digit = randomPoly(Rep::Eval, 9);
    RnsPoly fused_s = scalar_->nttBconvNtt(digit, table_ptrs_, bc,
                                           out_ptrs);
    RnsPoly fused_p = parallel_->nttBconvNtt(digit, table_ptrs_, bc,
                                             out_ptrs);
    RnsPoly fused_v = simd_->nttBconvNtt(digit, table_ptrs_, bc,
                                         out_ptrs);
    expectIdentical(fused_s, fused_p);
    expectIdentical(fused_s, fused_v);

    // The fused path must equal the unfused INTT -> BConv -> NTT
    // pipeline bit for bit.
    RnsPoly unfused = digit;
    scalar_->nttInverse(unfused, table_ptrs_);
    RnsPoly conv = ref::bconvTwoStage(bc, unfused);
    scalar_->nttForward(conv, out_ptrs);
    expectIdentical(fused_s, conv);
}

TEST_P(BackendParityTest, EvkMulAccParity)
{
    // Emulate the key-switch shapes: digit spans nq + np limbs, evk
    // spans full_nq + np limbs with full_nq >= nq.
    const size_t np = 2;
    if (limbs_ <= np)
        GTEST_SKIP() << "shape too small for an extended basis";
    const size_t nq = limbs_ - np;
    const size_t full_nq = nq + 1;

    // key moduli: nq q-primes then np specials (reuse the fixture
    // moduli; exact values are irrelevant for parity).
    std::vector<Modulus> key_moduli(moduli_.begin(), moduli_.end());

    auto digit = randomPoly(Rep::Eval, 10, nq + np);
    Rng rng(11);
    RnsPoly evk_b(degree_, full_nq + np, Rep::Eval);
    RnsPoly evk_a(degree_, full_nq + np, Rep::Eval);
    for (size_t l = 0; l < full_nq + np; ++l) {
        const size_t ml = l < nq ? l : (l >= full_nq ? nq + (l - full_nq)
                                                     : 0);
        auto vb = rng.uniformVector(degree_, moduli_[ml].value());
        auto va = rng.uniformVector(degree_, moduli_[ml].value());
        std::copy(vb.begin(), vb.end(), evk_b.limb(l));
        std::copy(va.begin(), va.end(), evk_a.limb(l));
    }

    RnsPoly bs(degree_, nq + np, Rep::Eval), as(degree_, nq + np,
                                                Rep::Eval);
    RnsPoly bp(degree_, nq + np, Rep::Eval), ap(degree_, nq + np,
                                                Rep::Eval);
    RnsPoly bv(degree_, nq + np, Rep::Eval), av(degree_, nq + np,
                                                Rep::Eval);
    scalar_->evkMulAcc(digit, evk_b, evk_a, nq, full_nq, key_moduli,
                       bs, as);
    parallel_->evkMulAcc(digit, evk_b, evk_a, nq, full_nq, key_moduli,
                         bp, ap);
    simd_->evkMulAcc(digit, evk_b, evk_a, nq, full_nq, key_moduli,
                     bv, av);
    expectIdentical(bs, bp);
    expectIdentical(as, ap);
    expectIdentical(bs, bv);
    expectIdentical(as, av);
}

TEST_P(BackendParityTest, StatsRecordWhatExecuted)
{
    auto a = randomPoly(Rep::Eval, 12);
    auto b = randomPoly(Rep::Eval, 13);
    RnsPoly r(degree_, limbs_, Rep::Eval);

    for (KernelBackend *kb :
         {scalar_.get(), parallel_.get(), simd_.get()}) {
        kb->resetStats();
        kb->mulEval(a, b, moduli_, r);
        // stats() returns a merged snapshot by value; keep it alive
        // while inspecting per-kernel counters.
        const KernelStats st = kb->stats();
        const KernelCounter &c = st.at(KernelOp::MulEval);
        EXPECT_EQ(c.calls, 1u);
        EXPECT_EQ(c.limbs, limbs_);
        EXPECT_EQ(c.mults, limbs_ * degree_);
        EXPECT_EQ(st.totalCalls(), 1u);
        kb->resetStats();
        EXPECT_EQ(kb->stats().totalCalls(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BackendParityTest,
    ::testing::Values(Shape{256, 3}, Shape{512, 6}, Shape{1024, 8},
                      Shape{2048, 4}));

// ---------------------------------------------------------------------------
// Lazy-reduction vs strict reference kernels
// ---------------------------------------------------------------------------

/**
 * The Harvey lazy (I)NTT must be bit-identical to the strict reference
 * transforms on random data for every prime width a shipped parameter
 * set uses (q0, scale and special primes of each preset), and the
 * lazy round-trip must be the identity.
 */
TEST(LazyStrictParityTest, NttAcrossParameterSetPrimes)
{
    struct PresetPrimes
    {
        std::string name;
        size_t degree;
        std::vector<int> widths;
    };
    std::vector<PresetPrimes> presets;
    for (const CkksParams &p :
         {CkksParams::testTiny(), CkksParams::testSmall(),
          CkksParams::testBoot()}) {
        // Test at a reduced degree with the preset's real prime
        // widths: NttTables work is O(N log N) per prime and the full
        // bootstrap-size rings would dominate suite runtime without
        // covering different code paths.
        const size_t degree = std::min<size_t>(p.degree, 2048);
        presets.push_back(
            {p.name, degree, {p.log_q0, p.log_scale, p.log_special}});
    }

    u64 seed = 40;
    for (const auto &preset : presets) {
        for (int width : preset.widths) {
            SCOPED_TRACE(preset.name + " width " +
                         std::to_string(width));
            auto primes = generatePrimes(width, 2, preset.degree);
            for (u64 q : primes) {
                NttTables tables(preset.degree, Modulus(q));
                Rng rng(seed++);
                auto v = rng.uniformVector(preset.degree, q);

                auto lazy = v;
                auto strict = v;
                tables.forward(lazy.data());
                ref::nttForwardStrict(tables, strict.data());
                EXPECT_EQ(lazy, strict) << "forward diverged, q=" << q;

                tables.inverse(lazy.data());
                ref::nttInverseStrict(tables, strict.data());
                EXPECT_EQ(lazy, strict) << "inverse diverged, q=" << q;
                EXPECT_EQ(lazy, v) << "round-trip not identity, q=" << q;
            }
        }
    }
}

/** Forward/inverse parity on tiny and odd-shaped degrees (the
 *  flattened last-stage specializations cover t = 1, 2 explicitly). */
TEST(LazyStrictParityTest, NttSmallDegrees)
{
    u64 seed = 60;
    for (size_t degree : {size_t(2), size_t(4), size_t(8), size_t(16),
                          size_t(64)}) {
        auto primes = generatePrimes(30, 2, degree);
        for (u64 q : primes) {
            NttTables tables(degree, Modulus(q));
            Rng rng(seed++);
            auto v = rng.uniformVector(degree, q);
            auto lazy = v, strict = v;
            tables.forward(lazy.data());
            ref::nttForwardStrict(tables, strict.data());
            EXPECT_EQ(lazy, strict) << "N=" << degree << " q=" << q;
            tables.inverse(lazy.data());
            ref::nttInverseStrict(tables, strict.data());
            EXPECT_EQ(lazy, strict) << "N=" << degree << " q=" << q;
            EXPECT_EQ(lazy, v);
        }
    }
}

/** Fused cache-blocked BConv (the scalar KernelBackend::bconv) ==
 *  the materialized two-stage pipeline on randomized bases, including
 *  non-multiple-of-tile degrees. */
TEST(LazyStrictParityTest, FusedBconvMatchesTwoStage)
{
    u64 seed = 80;
    for (size_t degree : {size_t(256), size_t(1024)}) {
        for (size_t nb : {size_t(1), size_t(3), size_t(7),
                          size_t(13)}) {
            SCOPED_TRACE("N=" + std::to_string(degree) +
                         " nb=" + std::to_string(nb));
            auto pb = generatePrimes(45, nb, degree);
            auto pc = generatePrimes(50, 5, degree, pb);
            std::vector<Modulus> mb, mc;
            for (u64 p : pb)
                mb.emplace_back(p);
            for (u64 p : pc)
                mc.emplace_back(p);
            BaseConverter bc(mb, mc);

            Rng rng(seed++);
            RnsPoly in(degree, nb, Rep::Coeff);
            for (size_t l = 0; l < nb; ++l) {
                auto v = rng.uniformVector(degree, pb[l]);
                std::copy(v.begin(), v.end(), in.limb(l));
            }

            RnsPoly fused = KernelBackend(SimdTier::Scalar).bconv(bc, in);
            RnsPoly two = ref::bconvTwoStage(bc, in);
            ASSERT_EQ(fused.numLimbs(), two.numLimbs());
            for (size_t l = 0; l < fused.numLimbs(); ++l) {
                for (size_t c = 0; c < degree; ++c) {
                    ASSERT_EQ(fused.limb(l)[c], two.limb(l)[c])
                        << "limb " << l << " coeff " << c;
                }
            }
        }
    }
}

/**
 * Kernels drawing outputs and scratch from a deliberately polluted
 * pool must produce bit-identical results to a backend with an empty
 * pool, on both engines — stale buffer words must never leak into
 * results.
 */
TEST(LazyStrictParityTest, PooledVersusFreshBitEquality)
{
    const size_t degree = 512;
    const size_t limbs = 6;
    auto qs = generatePrimes(40, limbs, degree);
    std::vector<Modulus> moduli;
    std::vector<NttTables> tables;
    std::vector<const NttTables *> table_ptrs;
    for (u64 q : qs) {
        moduli.emplace_back(q);
        tables.emplace_back(degree, Modulus(q));
    }
    for (auto &t : tables)
        table_ptrs.push_back(&t);
    auto pc = generatePrimes(41, 4, degree);
    std::vector<Modulus> out_base;
    std::vector<NttTables> out_tables;
    std::vector<const NttTables *> out_ptrs;
    for (u64 p : pc) {
        out_base.emplace_back(p);
        out_tables.emplace_back(degree, Modulus(p));
    }
    for (auto &t : out_tables)
        out_ptrs.push_back(&t);
    BaseConverter bc(moduli, out_base);
    Automorphism am(galoisElt(3, degree), degree);

    Rng rng(100);
    RnsPoly in(degree, limbs, Rep::Coeff);
    for (size_t l = 0; l < limbs; ++l) {
        auto v = rng.uniformVector(degree, qs[l]);
        std::copy(v.begin(), v.end(), in.limb(l));
    }

    for (BackendKind kind :
         {BackendKind::Scalar, BackendKind::Parallel}) {
        SCOPED_TRACE(kind == BackendKind::Scalar ? "scalar"
                                                 : "parallel");
        auto fresh = makeKernelBackend(kind, 4);
        auto pooled = makeKernelBackend(kind, 4);

        // Pollute the pooled backend's free lists with garbage-filled
        // buffers of exactly the shapes the kernels will request.
        auto pollute = [&](size_t nl, Rep rep) {
            RnsPoly junk = pooled->pool().acquire(degree, nl, rep);
            for (size_t l = 0; l < nl; ++l) {
                for (size_t c = 0; c < degree; ++c)
                    junk.limb(l)[c] = 0xDEADBEEFCAFEF00DULL;
            }
            pooled->pool().release(std::move(junk));
        };
        pollute(limbs, Rep::Coeff);
        pollute(out_base.size(), Rep::Coeff);

        RnsPoly bconv_fresh = fresh->bconv(bc, in);
        RnsPoly bconv_pooled = pooled->bconv(bc, in);
        for (size_t l = 0; l < bconv_fresh.numLimbs(); ++l) {
            for (size_t c = 0; c < degree; ++c) {
                ASSERT_EQ(bconv_fresh.limb(l)[c],
                          bconv_pooled.limb(l)[c])
                    << "bconv limb " << l << " coeff " << c;
            }
        }

        pollute(limbs, Rep::Coeff);
        RnsPoly rot_fresh = fresh->automorphism(am, in, moduli);
        RnsPoly rot_pooled = pooled->automorphism(am, in, moduli);
        for (size_t l = 0; l < rot_fresh.numLimbs(); ++l) {
            for (size_t c = 0; c < degree; ++c) {
                ASSERT_EQ(rot_fresh.limb(l)[c], rot_pooled.limb(l)[c])
                    << "automorphism limb " << l << " coeff " << c;
            }
        }

        RnsPoly digit = in;
        digit.setRep(Rep::Eval);
        pollute(limbs, Rep::Coeff);
        pollute(out_base.size(), Rep::Coeff);
        RnsPoly ks_fresh =
            fresh->nttBconvNtt(digit, table_ptrs, bc, out_ptrs);
        RnsPoly ks_pooled =
            pooled->nttBconvNtt(digit, table_ptrs, bc, out_ptrs);
        for (size_t l = 0; l < ks_fresh.numLimbs(); ++l) {
            for (size_t c = 0; c < degree; ++c) {
                ASSERT_EQ(ks_fresh.limb(l)[c], ks_pooled.limb(l)[c])
                    << "nttBconvNtt limb " << l << " coeff " << c;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// (executor x kernel table) cell sweep
// ---------------------------------------------------------------------------

/** One engine cell: a kernel table tier and a pool size (0 = serial). */
struct Cell
{
    SimdTier tier;
    size_t pool_threads;
};

void
PrintTo(const Cell &cell, std::ostream *os)
{
    *os << simdTierName(cell.tier) << " x " << cell.pool_threads;
}

/**
 * The engine at @p cell, or nullptr when the host cannot run its tier
 * (the backend clamps the request to what CPUID reports, so a request
 * coming back at a lower tier means "unavailable" — the caller should
 * GTEST_SKIP, keeping the suite green on any machine).
 */
std::unique_ptr<KernelBackend>
engineAt(const Cell &cell)
{
    auto be = cell.pool_threads == 0
                  ? std::make_unique<KernelBackend>(cell.tier)
                  : std::make_unique<KernelBackend>(cell.tier,
                                                    cell.pool_threads);
    if (be->tier() != cell.tier)
        return nullptr;
    return be;
}

class EngineCellParityTest : public ::testing::TestWithParam<Cell>
{
};

/** Forward NTT, inverse NTT and round trip of @p v on @p engine against
 *  serial x scalar, bit for bit. */
void
expectNttParity(KernelBackend &engine, const NttTables &tables,
                const std::vector<u64> &v)
{
    KernelBackend scalar(SimdTier::Scalar);
    const size_t degree = tables.degree();
    std::vector<const NttTables *> tp{&tables};
    RnsPoly p(degree, 1, Rep::Coeff);
    std::copy(v.begin(), v.end(), p.limb(0));
    RnsPoly ps = p;

    engine.nttForward(p, tp);
    scalar.nttForward(ps, tp);
    for (size_t i = 0; i < degree; ++i)
        ASSERT_EQ(p.limb(0)[i], ps.limb(0)[i]) << "forward i=" << i;
    engine.nttInverse(p, tp);
    scalar.nttInverse(ps, tp);
    for (size_t i = 0; i < degree; ++i) {
        ASSERT_EQ(p.limb(0)[i], ps.limb(0)[i]) << "inverse i=" << i;
        ASSERT_EQ(p.limb(0)[i], v[i]) << "round trip i=" << i;
    }
}

/**
 * NTT parity against serial x scalar across every prime width the
 * shipped parameter sets use plus the widest supported one. Width 61
 * exercises the q >= 2^60 guard, where the vector kernels' widened
 * lazy bounds no longer hold and the vector entries must run the
 * scalar transforms rather than compute garbage. Widths 42 (testBoot's
 * scale primes) and 49 run the IFMA tier's 52-bit butterflies, and the
 * two primes around 2^50 pin that tier's bound: the largest one below
 * takes the IFMA path with 4q just under 2^52, the smallest one above
 * falls back to the Shoup64 instantiation. Lazy values past 2^52 are rare that
 * close to the bound, so width 51 (4q near 2^53) is what catches a
 * bound set too high. Each prime sees a random vector and the
 * adversarial all 0, all q - 1 and alternating 0 / q - 1 inputs, at
 * both parities of log N.
 */
TEST_P(EngineCellParityTest, NttParityAcrossPrimeWidths)
{
    auto engine = engineAt(GetParam());
    if (!engine)
        GTEST_SKIP() << "tier not available on this host";

    // log N odd (2048) and even (4096): the forward epilogue starts
    // at t = 4 for the one and at t = 8 for the other.
    Rng rng(200);
    for (size_t degree : {size_t(2048), size_t(4096)}) {
        SCOPED_TRACE("degree " + std::to_string(degree));
        const u64 step = 2 * degree;
        const u64 two50 = 1ULL << 50;
        u64 below = (two50 - 1) / step * step + 1;
        while (!isPrime(below))
            below -= step;
        u64 above = below + step;
        while (above < two50 || !isPrime(above))
            above += step;
        ASSERT_LT(4 * below, 1ULL << 52);
        std::vector<u64> primes = {below, above};
        for (int width : {30, 40, 42, 49, 50, 51, 55, 59, 60, 61})
            for (u64 q : generatePrimes(width, 2, degree))
                primes.push_back(q);

        for (u64 q : primes) {
            SCOPED_TRACE("q " + std::to_string(q));
            NttTables tables(degree, Modulus(q));
            std::vector<u64> alt(degree);
            for (size_t i = 0; i < degree; ++i)
                alt[i] = i % 2 == 0 ? 0 : q - 1;
            for (const auto &v : {rng.uniformVector(degree, q),
                                  std::vector<u64>(degree, 0),
                                  std::vector<u64>(degree, q - 1), alt})
                expectNttParity(*engine, tables, v);
        }
    }
}

/** Tiny and sub-vector degrees: below a vector NTT entry's smallest
 *  degree it must run the scalar transform; at and above it the window
 *  (shuffle) paths and the fused stage pairs all get exercised. */
TEST_P(EngineCellParityTest, NttParityTinyDegrees)
{
    auto engine = engineAt(GetParam());
    if (!engine)
        GTEST_SKIP() << "tier not available on this host";

    u64 seed = 300;
    for (size_t degree : {size_t(2), size_t(4), size_t(8), size_t(16),
                          size_t(32), size_t(64), size_t(4096)}) {
        SCOPED_TRACE("degree " + std::to_string(degree));
        auto qs = generatePrimes(45, 1, degree);
        NttTables tables(degree, Modulus(qs[0]));
        Rng rng(seed++);
        expectNttParity(*engine, tables, rng.uniformVector(degree, qs[0]));
    }
}

/** Fused BConv tiles across odd base sizes (tile remainders) per tier. */
TEST_P(EngineCellParityTest, BconvParityOddBases)
{
    auto engine = engineAt(GetParam());
    if (!engine)
        GTEST_SKIP() << "tier not available on this host";
    KernelBackend scalar(SimdTier::Scalar);

    const size_t degree = 256;
    u64 seed = 400;
    for (size_t nb : {size_t(1), size_t(3), size_t(7)}) {
        SCOPED_TRACE("nb " + std::to_string(nb));
        auto pb = generatePrimes(45, nb, degree);
        auto pc = generatePrimes(50, 3, degree, pb);
        std::vector<Modulus> mb, mc;
        for (u64 p : pb)
            mb.emplace_back(p);
        for (u64 p : pc)
            mc.emplace_back(p);
        BaseConverter bc(mb, mc);

        Rng rng(seed++);
        RnsPoly in(degree, nb, Rep::Coeff);
        for (size_t l = 0; l < nb; ++l) {
            auto v = rng.uniformVector(degree, pb[l]);
            std::copy(v.begin(), v.end(), in.limb(l));
        }
        RnsPoly rs = scalar.bconv(bc, in);
        RnsPoly rv = engine->bconv(bc, in);
        ASSERT_EQ(rs.numLimbs(), rv.numLimbs());
        for (size_t l = 0; l < rs.numLimbs(); ++l) {
            for (size_t c = 0; c < degree; ++c)
                ASSERT_EQ(rs.limb(l)[c], rv.limb(l)[c])
                    << "limb " << l << " coeff " << c;
        }
    }
}

/** Poly of @p degree over @p base: random residues whose first vector
 *  is q - 1, or q - 1 throughout when @p top. */
RnsPoly
bconvInput(const std::vector<Modulus> &base, size_t degree, Rng &rng,
           bool top)
{
    RnsPoly in(degree, base.size(), Rep::Coeff);
    for (size_t l = 0; l < base.size(); ++l) {
        const u64 q = base[l].value();
        auto v = rng.uniformVector(degree, q);
        for (size_t c = 0; c < degree; ++c)
            if (top || c < 8)
                v[c] = q - 1;
        std::copy(v.begin(), v.end(), in.limb(l));
    }
    return in;
}

/**
 * The BConv tile per tier on in-bases of mixed widths: all 42-bit; one
 * 60-bit prime plus six 42-bit (testBoot's digit 0, whose 60-bit
 * residues pass 2^52, where the IFMA tile adds (y >> 52) * r); two
 * 60-bit (testSmall's ModDown). Every out-base holds the primes next
 * to 2^50 on either side of the IFMA tile's bound and a 60-bit limb.
 * Inputs are random with a first vector at q - 1, q - 1 throughout,
 * and inputs whose scaled residues are all p_j - 1 (the largest lane
 * sums). Then the kernel table's tile alone on
 * ranges that leave partial blocks, single vectors and words that do
 * not fill a vector, and the fused nttBconvNtt at testBoot's digit-0
 * shape.
 */
TEST_P(EngineCellParityTest, BconvParityMixedWidths)
{
    auto engine = engineAt(GetParam());
    if (!engine)
        GTEST_SKIP() << "tier not available on this host";
    KernelBackend scalar(SimdTier::Scalar);

    const size_t degree = 4096;
    const PrimeChains boot = primeChains(CkksParams::testBoot());
    const PrimeChains small = primeChains(CkksParams::testSmall());
    // testBoot's first special prime is the largest NTT-friendly prime
    // below 2^50; the next one above 2^50 sits past the IFMA bound.
    const u64 below = boot.p[0];
    u64 above = (1ULL << 50) + 1;
    while (!isPrime(above))
        above += 2 * degree;
    ASSERT_LT(below, 1ULL << 50);
    const auto moduli = [](const std::vector<u64> &primes) {
        return std::vector<Modulus>(primes.begin(), primes.end());
    };

    // (in-base, out-base): testBoot's digit 0 goes to the rest of its
    // key-switch base, testSmall's special primes to its q chain.
    const std::vector<u64> digit0(boot.q.begin(), boot.q.begin() + 7);
    std::vector<u64> boot_rest(boot.q.begin() + 7, boot.q.end());
    boot_rest.insert(boot_rest.end(), boot.p.begin(), boot.p.end());
    std::vector<u64> boot_out = boot_rest;
    boot_out.push_back(above);
    boot_out.push_back(generatePrimesBelow(60, 1, degree, boot.q)[0]);
    const std::vector<u64> narrow = generatePrimes(42, 7, degree);
    std::vector<u64> narrow_out = generatePrimes(42, 2, degree, narrow);
    narrow_out.insert(narrow_out.end(), {small.q[0], below, above});
    std::vector<u64> small_out = small.q;
    small_out.insert(small_out.end(), {below, above});
    const std::vector<std::pair<std::vector<u64>, std::vector<u64>>> cases =
        {{narrow, narrow_out},
         {digit0, boot_out},
         {small.p, small_out}};
    Rng rng(450);
    for (const auto &[in_primes, out] : cases) {
        BaseConverter bc(moduli(in_primes), moduli(out));
        SCOPED_TRACE("in " + std::to_string(in_primes.size()) + " limbs, "
                     "first " + std::to_string(in_primes[0]));
        ASSERT_EQ(std::count_if(out.begin(), out.end(),
                                [](u64 q) { return q > (1ULL << 59); }),
                  1);
        for (bool top : {false, true}) {
            const RnsPoly in = bconvInput(bc.inBase(), degree, rng, top);
            const RnsPoly rs = scalar.bconv(bc, in);
            const RnsPoly rv = engine->bconv(bc, in);
            for (size_t l = 0; l < rs.numLimbs(); ++l)
                for (size_t c = 0; c < degree; ++c)
                    ASSERT_EQ(rs.limb(l)[c], rv.limb(l)[c])
                        << "top " << top << " limb " << l << " coeff " << c;
        }
        // Inputs whose scaled residues y_j are all p_j - 1: the largest
        // MAC sums, about 2^110 on testBoot's digit 0, so the IFMA
        // tile's fold reduce carries lo into hi, hi passes 2^52 and the
        // 2^104 column is nonzero.
        RnsPoly in_max(degree, bc.inBase().size(), Rep::Coeff);
        for (size_t j = 0; j < bc.inBase().size(); ++j) {
            const Modulus &pj = bc.inBase()[j];
            const u64 x = pj.mul(pj.value() - 1, pj.inv(bc.phatInvModP(j)));
            std::fill(in_max.limb(j), in_max.limb(j) + degree, x);
        }
        const RnsPoly ms = scalar.bconv(bc, in_max);
        const RnsPoly mv = engine->bconv(bc, in_max);
        for (size_t l = 0; l < ms.numLimbs(); ++l)
            for (size_t c = 0; c < degree; ++c)
                ASSERT_EQ(ms.limb(l)[c], mv.limb(l)[c])
                    << "maximal scaled residues, limb " << l << " coeff "
                    << c;

        // Tile ranges of 1 to 63 words from an odd start.
        const SimdKernels &kernels = simdKernels(engine->tier());
        const RnsPoly in = bconvInput(bc.inBase(), 128, rng, false);
        for (size_t len : {size_t(1), size_t(7), size_t(9), size_t(33),
                           size_t(40), size_t(63)}) {
            SCOPED_TRACE("tile [3, " + std::to_string(3 + len) + ")");
            u64 scratch[BaseConverter::kTileWords];
            RnsPoly rs(128, out.size(), Rep::Coeff);
            RnsPoly rv(128, out.size(), Rep::Coeff);
            bc.convertTile(in, 3, 3 + len, scratch, rs);
            kernels.bconv_tile(bc, in, 3, 3 + len, scratch, rv);
            for (size_t l = 0; l < out.size(); ++l)
                for (size_t c = 3; c < 3 + len; ++c)
                    ASSERT_EQ(rs.limb(l)[c], rv.limb(l)[c])
                        << "limb " << l << " coeff " << c;
        }
    }

    // The fused digit path: INTT of digit 0, the tile, NTT of the rest.
    std::vector<NttTables> in_tables, out_tables;
    for (u64 q : digit0)
        in_tables.emplace_back(degree, Modulus(q));
    for (u64 q : boot_rest)
        out_tables.emplace_back(degree, Modulus(q));
    std::vector<const NttTables *> in_ptrs, out_ptrs;
    for (const auto &t : in_tables)
        in_ptrs.push_back(&t);
    for (const auto &t : out_tables)
        out_ptrs.push_back(&t);
    BaseConverter bc(moduli(digit0), moduli(boot_rest));
    RnsPoly digit = bconvInput(bc.inBase(), degree, rng, false);
    digit.setRep(Rep::Eval);
    const RnsPoly rs = scalar.nttBconvNtt(digit, in_ptrs, bc, out_ptrs);
    const RnsPoly rv = engine->nttBconvNtt(digit, in_ptrs, bc, out_ptrs);
    for (size_t l = 0; l < rs.numLimbs(); ++l)
        for (size_t c = 0; c < degree; ++c)
            ASSERT_EQ(rs.limb(l)[c], rv.limb(l)[c])
                << "nttBconvNtt limb " << l << " coeff " << c;
}

/** evk MAC digit path per tier, including the full_nq > nq tail, on
 *  both sides of the IFMA tier's q < 2^50 bound. The first vector of
 *  every limb holds q - 1 in each operand and accumulator (the largest
 *  product plus the largest sum). */
TEST_P(EngineCellParityTest, EvkMulAccParityPerTier)
{
    auto engine = engineAt(GetParam());
    if (!engine)
        GTEST_SKIP() << "tier not available on this host";
    KernelBackend scalar(SimdTier::Scalar);

    const size_t degree = 256;
    const size_t np = 2, nq = 3, full_nq = nq + 1;
    Rng rng(500);
    for (int width : {40, 49, 50, 60}) {
        SCOPED_TRACE("width " + std::to_string(width));
        std::vector<Modulus> key_moduli;
        for (u64 q : generatePrimes(width, full_nq + np, degree))
            key_moduli.emplace_back(q);
        // Random residues of key_moduli[l] with q - 1 in the first 8.
        const auto fill = [&](RnsPoly &p, size_t l, size_t key_l) {
            const u64 q = key_moduli[key_l].value();
            auto v = rng.uniformVector(degree, q);
            std::fill(v.begin(), v.begin() + 8, q - 1);
            std::copy(v.begin(), v.end(), p.limb(l));
        };

        RnsPoly digit(degree, nq + np, Rep::Eval);
        RnsPoly evk_b(degree, full_nq + np, Rep::Eval);
        RnsPoly evk_a(degree, full_nq + np, Rep::Eval);
        RnsPoly bs(degree, nq + np, Rep::Eval);
        RnsPoly as(degree, nq + np, Rep::Eval);
        for (size_t l = 0; l < nq + np; ++l) {
            const size_t key_l = l < nq ? l : full_nq + (l - nq);
            fill(digit, l, l);
            fill(bs, l, l);
            fill(as, l, l);
            fill(evk_b, key_l, l);
            fill(evk_a, key_l, l);
        }
        RnsPoly bv = bs, av = as;
        scalar.evkMulAcc(digit, evk_b, evk_a, nq, full_nq, key_moduli, bs,
                         as);
        engine->evkMulAcc(digit, evk_b, evk_a, nq, full_nq, key_moduli, bv,
                        av);
        for (size_t l = 0; l < nq + np; ++l) {
            for (size_t c = 0; c < degree; ++c) {
                ASSERT_EQ(bs.limb(l)[c], bv.limb(l)[c])
                    << "b limb " << l << " coeff " << c;
                ASSERT_EQ(as.limb(l)[c], av.limb(l)[c])
                    << "a limb " << l << " coeff " << c;
            }
        }
    }
}

/** mulEval and limbEmbed per tier, across prime widths (including the
 *  wide-modulus and centered edge values) and sub-vector degrees. */
TEST_P(EngineCellParityTest, MulEvalAndLimbEmbedPerTier)
{
    auto engine = engineAt(GetParam());
    if (!engine)
        GTEST_SKIP() << "tier not available on this host";
    KernelBackend scalar(SimdTier::Scalar);

    u64 seed = 600;
    for (size_t degree : {size_t(4), size_t(256)}) {
        for (int width : {30, 42, 49, 50, 60, 61}) {
            SCOPED_TRACE("degree " + std::to_string(degree) + " width " +
                         std::to_string(width));
            std::vector<Modulus> moduli;
            for (u64 q : generatePrimes(width, 2, degree))
                moduli.emplace_back(q);
            // Sources from a 60-bit q0 and from the narrowest limb, so
            // the embedding runs both above and below the out modulus.
            for (const Modulus &src_q :
                 {Modulus(generatePrimes(60, 1, degree)[0]), moduli[1]}) {
                Rng rng(seed++);
                std::vector<u64> src = rng.uniformVector(degree, src_q.value());
                const u64 q0 = src_q.value();
                const std::vector<u64> edges = {0, q0 / 2, q0 / 2 + 1, q0 - 1};
                std::copy(edges.begin(), edges.end(), src.begin());
                RnsPoly es(degree, 2, Rep::Coeff), ev(degree, 2, Rep::Coeff);
                scalar.limbEmbed(src, src_q, moduli, es);
                engine->limbEmbed(src, src_q, moduli, ev);
                for (size_t l = 0; l < 2; ++l) {
                    for (size_t i = 0; i < degree; ++i)
                        ASSERT_EQ(es.limb(l)[i], ev.limb(l)[i])
                            << "limbEmbed limb " << l << " i=" << i;
                }
            }

            Rng rng(seed++);
            RnsPoly a(degree, 2, Rep::Eval), b(degree, 2, Rep::Eval);
            for (size_t l = 0; l < 2; ++l) {
                const u64 q = moduli[l].value();
                auto va = rng.uniformVector(degree, q);
                auto vb = rng.uniformVector(degree, q);
                // One full vector of the largest product.
                const size_t edge = std::min<size_t>(8, degree);
                std::fill(va.begin(), va.begin() + edge, q - 1);
                std::fill(vb.begin(), vb.begin() + edge, q - 1);
                std::copy(va.begin(), va.end(), a.limb(l));
                std::copy(vb.begin(), vb.end(), b.limb(l));
            }
            RnsPoly rs(degree, 2, Rep::Eval), rv(degree, 2, Rep::Eval);
            scalar.mulEval(a, b, moduli, rs);
            engine->mulEval(a, b, moduli, rv);
            for (size_t l = 0; l < 2; ++l) {
                for (size_t i = 0; i < degree; ++i)
                    ASSERT_EQ(rs.limb(l)[i], rv.limb(l)[i])
                        << "mulEval limb " << l << " i=" << i;
            }
        }
    }
}

/**
 * The element-wise table entries (add, sub, the MAC, and the Shoup
 * product with a per-limb constant with and without a subtrahend) per
 * cell against serial x scalar. Widths 42 and 49 and the largest
 * prime below 2^50 take the Ifma52 instantiations, a prime just below
 * 2^60 and a 61-bit one the Shoup64 ones; degree 4 (and mulByI's 2-word half
 * limbs there) runs the scalar tails. Operands are random, all 0 and all
 * q - 1, with the per-limb constants 0, 1, q - 1 and a random one.
 */
TEST_P(EngineCellParityTest, ElementwiseEntriesPerTier)
{
    auto engine = engineAt(GetParam());
    if (!engine)
        GTEST_SKIP() << "tier not available on this host";
    KernelBackend scalar(SimdTier::Scalar);

    const auto largest_below = [](int bits, size_t degree) {
        return generatePrimesBelow(bits, 1, degree).front();
    };
    u64 seed = 700;
    for (size_t degree : {size_t(4), size_t(256)}) {
        const std::vector<u64> primes = {
            generatePrimes(42, 1, degree)[0], generatePrimes(49, 1, degree)[0],
            largest_below(50, degree), largest_below(60, degree),
            generatePrimes(61, 1, degree)[0]};
        const size_t limbs = primes.size();
        std::vector<Modulus> moduli(primes.begin(), primes.end());
        Rng rng(seed++);
        const auto make = [&](int kind) {
            RnsPoly p(degree, limbs, Rep::Eval);
            for (size_t l = 0; l < limbs; ++l) {
                const u64 q = primes[l];
                const auto v = kind == 0   ? rng.uniformVector(degree, q)
                               : kind == 1 ? std::vector<u64>(degree, 0)
                                           : std::vector<u64>(degree, q - 1);
                std::copy(v.begin(), v.end(), p.limb(l));
            }
            return p;
        };
        for (int ka = 0; ka < 3; ++ka) {
            for (int kb = 0; kb < 3; ++kb) {
                SCOPED_TRACE("degree " + std::to_string(degree) +
                             " operands " + std::to_string(ka) + "/" +
                             std::to_string(kb));
                const RnsPoly a = make(ka), b = make(kb), acc = make(0);
                const auto same = [&](const auto &op, const char *what) {
                    RnsPoly rs = acc, rv = acc;
                    op(scalar, rs);
                    op(*engine, rv);
                    for (size_t l = 0; l < limbs; ++l)
                        for (size_t i = 0; i < degree; ++i)
                            ASSERT_EQ(rs.limb(l)[i], rv.limb(l)[i])
                                << what << " limb " << l << " i=" << i;
                };
                same([&](KernelBackend &e, RnsPoly &r) {
                    e.add(a, b, moduli, r);
                }, "add");
                same([&](KernelBackend &e, RnsPoly &r) {
                    e.sub(a, b, moduli, r);
                }, "sub");
                same([&](KernelBackend &e, RnsPoly &r) {
                    e.mulAccEval(a, b, moduli, r);
                }, "mulAccEval");
                for (int ks = 0; ks < 4; ++ks) {
                    std::vector<u64> s(limbs);
                    for (size_t l = 0; l < limbs; ++l) {
                        const u64 q = primes[l];
                        s[l] = ks == 0   ? 0
                               : ks == 1 ? 1
                               : ks == 2 ? q - 1
                                         : rng.uniformVector(1, q)[0];
                    }
                    same([&](KernelBackend &e, RnsPoly &r) {
                        e.mulScalar(a, s, moduli, r);
                    }, "mulScalar");
                    same([&](KernelBackend &e, RnsPoly &r) {
                        e.subMulScalar(a, b, s, moduli, r);
                    }, "subMulScalar");
                }
            }
        }
        // mulByI runs the constant product on half limbs.
        std::vector<NttTables> tables;
        for (u64 q : primes)
            tables.emplace_back(degree, Modulus(q));
        const RnsPoly a = make(0);
        RnsPoly rs(degree, limbs, Rep::Eval), rv(degree, limbs, Rep::Eval);
        scalar.mulByI(a, tables, rs);
        engine->mulByI(a, tables, rv);
        for (size_t l = 0; l < limbs; ++l)
            for (size_t i = 0; i < degree; ++i)
                ASSERT_EQ(rs.limb(l)[i], rv.limb(l)[i])
                    << "mulByI limb " << l << " i=" << i;
    }
}

/** Every tier, serial and on a pool of 4. */
std::vector<Cell>
allCells()
{
    std::vector<Cell> out;
    for (SimdTier tier : {SimdTier::Scalar, SimdTier::Avx2,
                          SimdTier::Avx512, SimdTier::Avx512Ifma})
        for (size_t pool_threads : {size_t(0), size_t(4)})
            out.push_back({tier, pool_threads});
    return out;
}

INSTANTIATE_TEST_SUITE_P(Cells, EngineCellParityTest,
                         ::testing::ValuesIn(allCells()),
                         [](const auto &info) {
                             return std::string(info.param.pool_threads == 0
                                                    ? "serial_"
                                                    : "pool4_") +
                                    simdTierName(info.param.tier);
                         });

} // namespace
} // namespace ark
