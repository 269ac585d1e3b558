/**
 * @file
 * Invariant tests on CkksContext precomputation: gadget-constant
 * algebra (the heart of generalized key-switching correctness),
 * rescale constants, ModDown constants, and level bookkeeping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "ckks/context.h"
#include "common/math_util.h"

namespace ark {
namespace {

class ContextTest : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        ctx_ = new CkksContext(CkksParams::testSmall());
    }
    static void TearDownTestSuite() { delete ctx_; }

    static CkksContext *ctx_;
};

CkksContext *ContextTest::ctx_ = nullptr;

TEST_F(ContextTest, PrimeChainsWellFormed)
{
    const auto &p = ctx_->params();
    EXPECT_EQ(ctx_->qModuli().size(), static_cast<size_t>(p.max_level) + 1);
    EXPECT_EQ(ctx_->pModuli().size(), static_cast<size_t>(p.alpha()));
    // All primes distinct and NTT-friendly.
    std::set<u64> seen;
    for (const auto &m : ctx_->qModuli()) {
        EXPECT_EQ((m.value() - 1) % (2 * p.degree), 0u);
        EXPECT_TRUE(seen.insert(m.value()).second);
    }
    for (const auto &m : ctx_->pModuli()) {
        EXPECT_EQ((m.value() - 1) % (2 * p.degree), 0u);
        EXPECT_TRUE(seen.insert(m.value()).second);
    }
}

TEST_F(ContextTest, GadgetConstantsAreCrtIndicators)
{
    // g_d = 1 mod the primes of digit d, 0 mod other q primes
    // (paper Alg. 2 correctness hinges on exactly this).
    const int a = ctx_->alpha();
    const size_t nq = ctx_->qModuli().size();
    for (int d = 0; d < ctx_->dnum(); ++d) {
        const auto &g = ctx_->gadget(d);
        for (size_t l = 0; l < nq; ++l) {
            const bool in_digit = l >= static_cast<size_t>(d) * a &&
                                  l < static_cast<size_t>(d + 1) * a;
            EXPECT_EQ(g[l], in_digit ? 1u : 0u)
                << "digit " << d << " limb " << l;
        }
    }
}

TEST_F(ContextTest, PInverseConstants)
{
    for (size_t i = 0; i < ctx_->qModuli().size(); ++i) {
        const Modulus &q = ctx_->qModuli()[i];
        EXPECT_EQ(q.mul(ctx_->pModQ(i), ctx_->pInvModQ(i)), 1u);
        // P mod q_i is the product of the special primes mod q_i.
        u64 expect = 1;
        for (const auto &sp : ctx_->pModuli())
            expect = q.mul(expect, sp.value() % q.value());
        EXPECT_EQ(ctx_->pModQ(i), expect);
    }
}

TEST_F(ContextTest, RescaleConstants)
{
    for (int lv = 1; lv <= ctx_->maxLevel(); ++lv) {
        const u64 q_last = ctx_->qModuli()[lv].value();
        for (int i = 0; i < lv; ++i) {
            const Modulus &qi = ctx_->qModuli()[i];
            EXPECT_EQ(qi.mul(ctx_->qLastInvModQ(lv, i),
                             q_last % qi.value()), 1u);
        }
    }
}

TEST_F(ContextTest, DigitCountPerLevel)
{
    const int a = ctx_->alpha();
    for (int lv = 0; lv <= ctx_->maxLevel(); ++lv) {
        int expect = (lv + 1 + a - 1) / a; // ceil((lv+1)/alpha)
        EXPECT_EQ(ctx_->numDigits(lv), expect) << "level " << lv;
    }
}

TEST_F(ContextTest, KeyTableRouting)
{
    const int lv = 3;
    // Limbs 0..lv route to q tables; beyond that to special tables.
    for (int l = 0; l <= lv; ++l) {
        EXPECT_EQ(ctx_->keyTable(l, lv).modulus().value(),
                  ctx_->qModuli()[l].value());
    }
    for (size_t s = 0; s < ctx_->pModuli().size(); ++s) {
        EXPECT_EQ(ctx_->keyTable(lv + 1 + s, lv).modulus().value(),
                  ctx_->pModuli()[s].value());
    }
}

TEST_F(ContextTest, AutomorphismCacheReturnsSameObject)
{
    const Automorphism &a1 = ctx_->automorphism(5);
    const Automorphism &a2 = ctx_->automorphism(5);
    EXPECT_EQ(&a1, &a2);
    const Automorphism &b = ctx_->automorphism(25);
    EXPECT_NE(&a1, &b);
}

/** FNV-1a over the little-endian bytes of @p words. */
u64
fnv1a(const std::vector<u64> &words)
{
    u64 h = 1469598103934665603ULL;
    for (u64 w : words) {
        for (int i = 0; i < 8; ++i) {
            h ^= (w >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
    }
    return h;
}

/**
 * Every preset's special primes are the largest NTT-friendly primes
 * below 2^log_special (so all of them stay below 2^60, on the vector
 * NTT bodies), and testBoot's are below 2^50, on the IFMA ones. The
 * hashes pin each preset's q chain and p chain.
 */
TEST(PrimeChains, SpecialPrimesBelowTwoToLogSpecialQChainsUnchanged)
{
    struct Pinned
    {
        CkksParams params;
        u64 q_hash, p_hash;
    };
    const Pinned presets[] = {
        {CkksParams::ark(), 0xdb43f647befa3847ull, 0xa7ad0129d5abfab0ull},
        {CkksParams::lattigo(), 0x1e1a562958e3acdfull, 0x87bfb22d23ab9919ull},
        {CkksParams::hundredX(), 0x92faece4e6ada24cull, 0x720210ef19d783deull},
        {CkksParams::f1(), 0x54e77aee2afc7986ull, 0xf65a3c70023032c3ull},
        {CkksParams::testTiny(), 0x1c6cb237f2bfb1faull, 0x30790796f7fb2e86ull},
        {CkksParams::testSmall(), 0x139938e49e85b408ull, 0x0fa5f96ebbe99710ull},
        {CkksParams::testBoot(), 0xbd916d77ab767653ull, 0xd451ca21bc0d46b4ull},
    };
    for (const auto &[params, q_hash, p_hash] : presets) {
        SCOPED_TRACE(params.name);
        const PrimeChains chains = primeChains(params);
        ASSERT_EQ(chains.q.size(), static_cast<size_t>(params.max_level) + 1);
        EXPECT_EQ(fnv1a(chains.q), q_hash);
        EXPECT_EQ(fnv1a(chains.p), p_hash);
        ASSERT_EQ(chains.p.size(), static_cast<size_t>(params.alpha()));
        const u64 top = 1ULL << params.log_special;
        for (size_t i = 0; i < chains.p.size(); ++i) {
            const u64 p = chains.p[i];
            EXPECT_LT(p, top);
            EXPECT_LT(p, 1ULL << 60);
            EXPECT_GE(p, top / 2);
            EXPECT_TRUE(isPrime(p));
            EXPECT_EQ((p - 1) % (2 * params.degree), 0u);
            EXPECT_EQ(std::count(chains.q.begin(), chains.q.end(), p), 0);
            if (i > 0) {
                EXPECT_LT(p, chains.p[i - 1]);
            }
        }
    }
    for (u64 p : primeChains(CkksParams::testBoot()).p)
        EXPECT_LT(p, 1ULL << 50);
}

/** At testSmall, special primes below 2^50 give P ~ Q_0: the context
 *  refuses them. */
TEST(ContextDeath, RejectsSpecialPrimesBelowMargin)
{
    CkksParams p = CkksParams::testSmall();
    p.log_special = 50;
    EXPECT_DEATH({ CkksContext ctx(p); }, "largest digit");
}

TEST(ContextDeath, RejectsIndivisibleDnum)
{
    CkksParams p = CkksParams::testTiny();
    p.dnum = 3; // L+1 = 4 not divisible by 3
    EXPECT_DEATH({ CkksContext ctx(p); }, "");
}

} // namespace
} // namespace ark
