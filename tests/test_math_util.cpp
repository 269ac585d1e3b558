/**
 * @file
 * Unit tests for the scalar number-theory helpers.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/math_util.h"

namespace ark {
namespace {

TEST(MathUtil, PowerOfTwo)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(1ULL << 40));
    EXPECT_FALSE(isPowerOfTwo((1ULL << 40) + 1));
}

TEST(MathUtil, Log2Exact)
{
    EXPECT_EQ(log2Exact(1), 0);
    EXPECT_EQ(log2Exact(2), 1);
    EXPECT_EQ(log2Exact(65536), 16);
}

TEST(MathUtil, BitReverse)
{
    EXPECT_EQ(bitReverse(0b001, 3), 0b100u);
    EXPECT_EQ(bitReverse(0b110, 3), 0b011u);
    for (u64 x = 0; x < 64; ++x)
        EXPECT_EQ(bitReverse(bitReverse(x, 6), 6), x);
}

TEST(MathUtil, AddSubMod)
{
    const u64 m = 97;
    EXPECT_EQ(addMod(50, 60, m), 13u);
    EXPECT_EQ(subMod(10, 20, m), 87u);
    EXPECT_EQ(subMod(20, 20, m), 0u);
}

TEST(MathUtil, SubModEdges)
{
    for (const u64 m : {u64{97}, (u64{1} << 61) - 1}) {
        EXPECT_EQ(subMod(m - 1, m - 1, m), 0u);
        EXPECT_EQ(subMod(0, 0, m), 0u);
        EXPECT_EQ(subMod(0, m - 1, m), 1u);
        EXPECT_EQ(subMod(m - 1, 0, m), m - 1);
    }
}

TEST(MathUtil, MulModLarge)
{
    const u64 m = (1ULL << 61) - 1;
    const u64 a = m - 2, b = m - 3;
    // (m-2)(m-3) = m^2 - 5m + 6 = 6 mod m.
    EXPECT_EQ(mulMod(a, b, m), 6u);
}

TEST(MathUtil, PowMod)
{
    EXPECT_EQ(powMod(2, 10, 1000000007ULL), 1024u);
    // Fermat: a^(p-1) = 1 mod p.
    const u64 p = 0xffffffff00000001ULL; // Goldilocks prime
    EXPECT_EQ(powMod(3, p - 1, p), 1u);
}

TEST(MathUtil, InvMod)
{
    const u64 p = 1000000007ULL;
    for (u64 a : {u64{2}, u64{3}, u64{123456789}, p - 1}) {
        u64 inv = invMod(a, p);
        EXPECT_EQ(mulMod(a, inv, p), 1u);
    }
}

TEST(MathUtil, IsPrimeSmall)
{
    EXPECT_FALSE(isPrime(0));
    EXPECT_FALSE(isPrime(1));
    EXPECT_TRUE(isPrime(2));
    EXPECT_TRUE(isPrime(3));
    EXPECT_FALSE(isPrime(4));
    EXPECT_TRUE(isPrime(97));
    EXPECT_FALSE(isPrime(1001));
}

TEST(MathUtil, IsPrimeLarge)
{
    EXPECT_TRUE(isPrime((1ULL << 61) - 1));          // Mersenne prime
    EXPECT_TRUE(isPrime(0xffffffff00000001ULL));     // Goldilocks
    EXPECT_FALSE(isPrime((1ULL << 61) - 3));
    // Carmichael number 561 = 3 * 11 * 17 must be rejected.
    EXPECT_FALSE(isPrime(561));
}

TEST(MathUtil, PrimitiveRootOrder)
{
    const u64 p = 97;
    u64 g = primitiveRoot(p);
    // g must have full order p-1: g^((p-1)/f) != 1 for prime factors f.
    EXPECT_NE(powMod(g, 48, p), 1u); // (p-1)/2
    EXPECT_NE(powMod(g, 32, p), 1u); // (p-1)/3
    EXPECT_EQ(powMod(g, 96, p), 1u);
}

/** The primitive root by full trial division of p - 1, the reference
 *  primitiveRoot's early stop must agree with. */
u64
primitiveRootByFullTrialDivision(u64 p)
{
    const u64 phi = p - 1;
    std::vector<u64> factors;
    u64 n = phi;
    for (u64 f = 2; f * f <= n; ++f) {
        if (n % f == 0) {
            factors.push_back(f);
            while (n % f == 0)
                n /= f;
        }
    }
    if (n > 1)
        factors.push_back(n);
    for (u64 g = 2;; ++g) {
        bool ok = true;
        for (u64 f : factors)
            ok = ok && powMod(g, phi / f, p) != 1;
        if (ok)
            return g;
    }
}

TEST(MathUtil, PrimitiveRootMatchesFullTrialDivision)
{
    // 0xffffffffff1c001 - 1 = 2^14 * a 46-bit prime: the early stop
    // skips dividing up to 2^23. 0x3ffffffa001 - 1 = 2^13 * a 30-bit
    // prime; 0x3ffffffffc001 and 0x100000000000e001 (above 2^60) have
    // p - 1 with many small factors, so the cofactor turns prime late.
    for (u64 p : {97ull, 65537ull, 0xffffffff00000001ull,
                  0xffffffffff1c001ull, 0x3ffffffa001ull,
                  0x3ffffffffc001ull, 0x100000000000e001ull}) {
        ASSERT_TRUE(isPrime(p)) << p;
        EXPECT_EQ(primitiveRoot(p), primitiveRootByFullTrialDivision(p))
            << p;
    }
}

TEST(MathUtil, RootOfUnity)
{
    const u64 p = 0xffffffff00000001ULL; // 2^32 | p - 1
    const u64 order = 1ULL << 20;
    u64 w = rootOfUnity(order, p);
    EXPECT_EQ(powMod(w, order, p), 1u);
    EXPECT_NE(powMod(w, order / 2, p), 1u);
}

} // namespace
} // namespace ark
