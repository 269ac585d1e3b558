/**
 * @file
 * Tests for fast RNS base conversion against an exact wide-integer
 * reference of Eq. 4.
 */

#include <gtest/gtest.h>

#include "common/random.h"
#include "rns/backend.h"
#include "rns/bconv.h"
#include "rns/primes.h"
#include "support/reference_kernels.h"

namespace ark {
namespace {

std::vector<Modulus>
makeModuli(const std::vector<u64> &primes)
{
    std::vector<Modulus> v;
    for (u64 p : primes)
        v.emplace_back(p);
    return v;
}

/** The production BConv: the scalar table's fused tile pass. */
RnsPoly
convert(const BaseConverter &bc, const RnsPoly &in)
{
    return KernelBackend(SimdTier::Scalar).bconv(bc, in);
}

TEST(BConv, SinglePrimeInputIsPlainModReduction)
{
    // With |B| = 1, phat = 1, so BConv is just x mod q_i.
    const size_t n = 32;
    auto pb = generatePrimes(30, 1, n);
    auto pc = generatePrimes(35, 3, n);
    BaseConverter bc(makeModuli(pb), makeModuli(pc));

    Rng rng(301);
    RnsPoly in(n, 1, Rep::Coeff);
    auto vals = rng.uniformVector(n, pb[0]);
    std::copy(vals.begin(), vals.end(), in.limb(0));

    auto out = convert(bc, in);
    ASSERT_EQ(out.numLimbs(), 3u);
    for (size_t i = 0; i < 3; ++i) {
        for (size_t c = 0; c < n; ++c)
            EXPECT_EQ(out.limb(i)[c], vals[c] % pc[i]);
    }
}

TEST(BConv, MatchesExactSumReference)
{
    // Eq. 4 computes sum_j (x_j * phat_j^-1 mod p_j) * phat_j mod q_i.
    // With two 30-bit input primes the exact sum fits in 128 bits, so
    // we can check every coefficient exactly.
    const size_t n = 64;
    auto pb = generatePrimes(30, 2, n);
    auto pc = generatePrimes(40, 3, n);
    BaseConverter bc(makeModuli(pb), makeModuli(pc));
    Modulus b0(pb[0]), b1(pb[1]);

    Rng rng(302);
    RnsPoly in(n, 2, Rep::Coeff);
    auto v0 = rng.uniformVector(n, pb[0]);
    auto v1 = rng.uniformVector(n, pb[1]);
    std::copy(v0.begin(), v0.end(), in.limb(0));
    std::copy(v1.begin(), v1.end(), in.limb(1));

    auto out = convert(bc, in);

    const u64 phat0 = pb[1]; // prod of others
    const u64 phat1 = pb[0];
    const u64 inv0 = b0.inv(phat0 % pb[0]);
    const u64 inv1 = b1.inv(phat1 % pb[1]);
    for (size_t c = 0; c < n; ++c) {
        u64 y0 = b0.mul(v0[c], inv0);
        u64 y1 = b1.mul(v1[c], inv1);
        u128 exact = static_cast<u128>(y0) * phat0 +
                     static_cast<u128>(y1) * phat1;
        for (size_t i = 0; i < 3; ++i)
            EXPECT_EQ(out.limb(i)[c], static_cast<u64>(exact % pc[i]));
    }
}

TEST(BConv, ReconstructsValueUpToMultipleOfP)
{
    // The fast conversion may add u * P with 0 <= u < |B|; verify the
    // residues are consistent with x + u*P for a single such u.
    const size_t n = 16;
    auto pb = generatePrimes(28, 3, n);
    auto pc = generatePrimes(45, 2, n);
    BaseConverter bc(makeModuli(pb), makeModuli(pc));

    const u128 big_p =
        static_cast<u128>(pb[0]) * pb[1] * pb[2]; // < 2^84

    Rng rng(303);
    // Choose x < P directly, derive limbs, convert, and check that some
    // u in [0, 3) explains all output residues simultaneously.
    for (int trial = 0; trial < 20; ++trial) {
        u128 x = ((static_cast<u128>(rng.next()) << 64) | rng.next()) %
                 big_p;
        RnsPoly in(n, 3, Rep::Coeff);
        for (size_t j = 0; j < 3; ++j) {
            for (size_t c = 0; c < n; ++c)
                in.limb(j)[c] = static_cast<u64>(x % pb[j]);
        }
        auto out = convert(bc, in);
        bool some_u_works = false;
        for (u64 u = 0; u < 3 && !some_u_works; ++u) {
            bool ok = true;
            for (size_t i = 0; i < 2; ++i) {
                u128 lifted = x + u * big_p;
                if (out.limb(i)[0] != static_cast<u64>(lifted % pc[i]))
                    ok = false;
            }
            some_u_works = ok;
        }
        EXPECT_TRUE(some_u_works);
    }
}

TEST(BConv, StagesComposeToConvert)
{
    const size_t n = 32;
    auto pb = generatePrimes(30, 2, n);
    auto pc = generatePrimes(40, 2, n);
    BaseConverter bc(makeModuli(pb), makeModuli(pc));

    Rng rng(304);
    RnsPoly in(n, 2, Rep::Coeff);
    for (size_t j = 0; j < 2; ++j) {
        auto v = rng.uniformVector(n, pb[j]);
        std::copy(v.begin(), v.end(), in.limb(j));
    }
    auto direct = convert(bc, in);
    auto staged = ref::bconvTwoStage(bc, in);
    for (size_t i = 0; i < 2; ++i) {
        for (size_t c = 0; c < n; ++c)
            EXPECT_EQ(direct.limb(i)[c], staged.limb(i)[c]);
    }
}

TEST(BConv, BaseTableShape)
{
    const size_t n = 16;
    auto pb = generatePrimes(30, 4, n);
    auto pc = generatePrimes(40, 6, n);
    BaseConverter bc(makeModuli(pb), makeModuli(pc));
    // Base table entries are phat_j mod q_i, all < q_i.
    for (size_t i = 0; i < 6; ++i) {
        for (size_t j = 0; j < 4; ++j)
            EXPECT_LT(bc.baseTable(i, j), pc[i]);
    }
}

TEST(BConv, RequiresCoeffRep)
{
    const size_t n = 16;
    auto pb = generatePrimes(30, 2, n);
    auto pc = generatePrimes(40, 2, n);
    BaseConverter bc(makeModuli(pb), makeModuli(pc));
    RnsPoly in(n, 2, Rep::Eval);
    KernelBackend kb(SimdTier::Scalar);
    EXPECT_DEATH(kb.bconv(bc, in), "");
}

} // namespace
} // namespace ark
