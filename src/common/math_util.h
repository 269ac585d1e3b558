/**
 * @file
 * Scalar number-theory helpers shared by the RNS and CKKS layers.
 *
 * Everything here operates on single 64-bit words; vectorized polynomial
 * arithmetic lives in src/rns. Functions are deliberately branch-light
 * since several of them sit on the NTT hot path of the functional
 * library.
 */

#pragma once

#include <vector>

#include "common/types.h"

namespace ark {

/** @return true iff @p x is a power of two (0 returns false). */
constexpr bool
isPowerOfTwo(u64 x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** Integer log2 of a power of two. */
constexpr int
log2Exact(u64 x)
{
    int r = 0;
    while (x > 1) {
        x >>= 1;
        ++r;
    }
    return r;
}

/** Reverse the low @p bits bits of @p x (used for NTT orderings). */
constexpr u64
bitReverse(u64 x, int bits)
{
    u64 r = 0;
    for (int i = 0; i < bits; ++i) {
        r = (r << 1) | ((x >> i) & 1);
    }
    return r;
}

/** (a + b) mod m, assuming a, b < m < 2^63. */
inline u64
addMod(u64 a, u64 b, u64 m)
{
    u64 s = a + b;
    return s >= m ? s - m : s;
}

/**
 * (a - b) mod m, assuming a, b < m < 2^63. Branchless: the sign of
 * a - b masks m back in. (A mask from the borrow, -(a < b), compiles to
 * sbb, whose false dependency on its register serializes loops.)
 */
inline u64
subMod(u64 a, u64 b, u64 m)
{
    const u64 d = a - b;
    return d + (m & static_cast<u64>(static_cast<i64>(d) >> 63));
}

/** (a * b) mod m via a 128-bit product. */
inline u64
mulMod(u64 a, u64 b, u64 m)
{
    return static_cast<u64>((static_cast<u128>(a) * b) % m);
}

/** a^e mod m by square-and-multiply. */
u64 powMod(u64 a, u64 e, u64 m);

/** Modular inverse of a mod m (m prime or gcd(a,m)=1); panics otherwise. */
u64 invMod(u64 a, u64 m);

/** Deterministic Miller-Rabin primality test, exact for all 64-bit ints. */
bool isPrime(u64 n);

/**
 * Find a generator of the multiplicative group mod prime @p p
 * (a primitive root).
 */
u64 primitiveRoot(u64 p);

/**
 * A primitive @p order -th root of unity mod prime @p p.
 * Requires order | (p - 1).
 */
u64 rootOfUnity(u64 order, u64 p);

/**
 * Round a long double of magnitude < 2^95 to a signed 128-bit integer.
 *
 * Scalar constants in CKKS must be rounded to ONE integer and then
 * reduced mod every RNS prime; rounding per limb with fmod is not
 * consistent across limbs of different bit widths (the fractional part
 * is lost to the 2^-3 ulp at a 60-bit modulus but kept at a 42-bit
 * one), which silently corrupts the CRT representation.
 */
i128 roundToI128(long double x);

/** Reduce a signed 128-bit integer into [0, q). */
inline u64
reduceI128(i128 v, u64 q)
{
    i128 r = v % static_cast<i128>(q);
    if (r < 0)
        r += q;
    return static_cast<u64>(r);
}

} // namespace ark
