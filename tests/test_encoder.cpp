/**
 * @file
 * Tests for the CKKS encoder: canonical-embedding round trips and the
 * homomorphisms the scheme relies on (addition, multiplication,
 * rotation-by-automorphism, conjugation).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ckks/encoder.h"
#include "common/random.h"
#include "rns/automorphism.h"

namespace ark {
namespace {

class EncoderTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        ctx_ = std::make_unique<CkksContext>(CkksParams::testTiny());
        enc_ = std::make_unique<CkksEncoder>(*ctx_);
    }

    std::vector<Complex> randomMessage(size_t n, u64 seed)
    {
        Rng rng(seed);
        std::vector<Complex> m(n);
        for (auto &x : m)
            x = Complex(rng.uniformReal() * 2 - 1,
                        rng.uniformReal() * 2 - 1);
        return m;
    }

    static double maxErr(const std::vector<Complex> &a,
                         const std::vector<Complex> &b)
    {
        double e = 0;
        for (size_t i = 0; i < a.size(); ++i)
            e = std::max(e, std::abs(a[i] - b[i]));
        return e;
    }

    std::unique_ptr<CkksContext> ctx_;
    std::unique_ptr<CkksEncoder> enc_;
};

TEST_F(EncoderTest, RoundTripFullPacking)
{
    auto m = randomMessage(enc_->maxSlots(), 1);
    auto pt = enc_->encode(m, ctx_->maxLevel());
    auto back = enc_->decode(pt, m.size());
    EXPECT_LT(maxErr(m, back), 1e-6);
}

TEST_F(EncoderTest, RoundTripSparsePacking)
{
    for (size_t n : {1u, 4u, 16u, 64u}) {
        auto m = randomMessage(n, 2 + n);
        auto pt = enc_->encode(m, ctx_->maxLevel());
        auto back = enc_->decode(pt, n);
        EXPECT_LT(maxErr(m, back), 1e-6) << "slots=" << n;
    }
}

TEST_F(EncoderTest, SparseMessageReplicates)
{
    // Decoding more slots than encoded must show the replication.
    auto m = randomMessage(8, 3);
    auto pt = enc_->encode(m, ctx_->maxLevel());
    auto back = enc_->decode(pt, 32);
    for (size_t i = 0; i < 32; ++i)
        EXPECT_LT(std::abs(back[i] - m[i % 8]), 1e-6);
}

TEST_F(EncoderTest, ScalarEncode)
{
    Complex v(0.37, -1.25);
    auto pt = enc_->encodeScalar(v, ctx_->maxLevel());
    auto back = enc_->decode(pt, 16);
    for (const auto &x : back)
        EXPECT_LT(std::abs(x - v), 1e-6);
}

TEST_F(EncoderTest, AdditionHomomorphism)
{
    auto m1 = randomMessage(enc_->maxSlots(), 4);
    auto m2 = randomMessage(enc_->maxSlots(), 5);
    auto p1 = enc_->encode(m1, ctx_->maxLevel());
    auto p2 = enc_->encode(m2, ctx_->maxLevel());
    const auto moduli = ctx_->levelModuli(ctx_->maxLevel());
    Plaintext sum = p1;
    ctx_->backend().add(p1.poly, p2.poly, moduli, sum.poly);
    auto back = enc_->decode(sum, m1.size());
    for (size_t i = 0; i < m1.size(); ++i)
        EXPECT_LT(std::abs(back[i] - (m1[i] + m2[i])), 1e-5);
}

TEST_F(EncoderTest, MultiplicationHomomorphism)
{
    auto m1 = randomMessage(enc_->maxSlots(), 6);
    auto m2 = randomMessage(enc_->maxSlots(), 7);
    auto p1 = enc_->encode(m1, ctx_->maxLevel());
    auto p2 = enc_->encode(m2, ctx_->maxLevel());
    const auto moduli = ctx_->levelModuli(ctx_->maxLevel());
    Plaintext prod = p1;
    ctx_->backend().mulEval(p1.poly, p2.poly, moduli, prod.poly);
    prod.scale = p1.scale * p2.scale;
    auto back = enc_->decode(prod, m1.size());
    for (size_t i = 0; i < m1.size(); ++i)
        EXPECT_LT(std::abs(back[i] - m1[i] * m2[i]), 1e-4);
}

TEST_F(EncoderTest, AutomorphismRotatesSlots)
{
    auto m = randomMessage(enc_->maxSlots(), 8);
    auto pt = enc_->encode(m, ctx_->maxLevel());
    const auto moduli = ctx_->levelModuli(ctx_->maxLevel());
    for (i64 r : {1, 2, 5, 17}) {
        const Automorphism &am =
            ctx_->automorphism(galoisElt(r, ctx_->degree()));
        Plaintext rot = pt;
        rot.poly = ctx_->backend().automorphism(am, pt.poly, moduli);
        auto back = enc_->decode(rot, m.size());
        for (size_t i = 0; i < m.size(); ++i) {
            Complex expect = m[(i + r) % m.size()];
            EXPECT_LT(std::abs(back[i] - expect), 1e-5)
                << "r=" << r << " slot=" << i;
        }
    }
}

TEST_F(EncoderTest, ConjugationAutomorphism)
{
    auto m = randomMessage(enc_->maxSlots(), 9);
    auto pt = enc_->encode(m, ctx_->maxLevel());
    const auto moduli = ctx_->levelModuli(ctx_->maxLevel());
    const Automorphism &am =
        ctx_->automorphism(galoisEltConjugate(ctx_->degree()));
    Plaintext conj = pt;
    conj.poly = ctx_->backend().automorphism(am, pt.poly, moduli);
    auto back = enc_->decode(conj, m.size());
    for (size_t i = 0; i < m.size(); ++i)
        EXPECT_LT(std::abs(back[i] - std::conj(m[i])), 1e-5);
}

TEST_F(EncoderTest, FftSpecialRoundTrip)
{
    auto m = randomMessage(enc_->maxSlots(), 10);
    auto v = m;
    enc_->fftSpecialInv(v);
    enc_->fftSpecial(v);
    EXPECT_LT(maxErr(m, v), 1e-9);
}

} // namespace
} // namespace ark
