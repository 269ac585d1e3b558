/**
 * @file
 * Unit and property tests for Barrett/Shoup modular reduction.
 */

#include <gtest/gtest.h>

#include "common/random.h"
#include "rns/modulus.h"

namespace ark {
namespace {

TEST(Modulus, BasicOps)
{
    Modulus q(97);
    EXPECT_EQ(q.value(), 97u);
    EXPECT_EQ(q.add(90, 10), 3u);
    EXPECT_EQ(q.sub(3, 10), 90u);
    EXPECT_EQ(q.mul(10, 10), 3u);
    EXPECT_EQ(q.neg(0), 0u);
    EXPECT_EQ(q.neg(1), 96u);
    EXPECT_EQ(q.pow(2, 10), 1024 % 97);
    EXPECT_EQ(q.mul(q.inv(13), 13), 1u);
}

TEST(Modulus, BarrettMatchesNaive)
{
    Rng rng(1);
    for (u64 qv : {(1ULL << 30) + 3, (1ULL << 45) + 59,
                   0x1fffffffffe00001ULL, (1ULL << 61) - 1}) {
        Modulus q(qv);
        for (int i = 0; i < 2000; ++i) {
            u64 a = rng.uniform(qv);
            u64 b = rng.uniform(qv);
            EXPECT_EQ(q.mul(a, b), mulMod(a, b, qv));
        }
        // Edge cases.
        EXPECT_EQ(q.mul(qv - 1, qv - 1), mulMod(qv - 1, qv - 1, qv));
        EXPECT_EQ(q.mul(0, qv - 1), 0u);
        EXPECT_EQ(q.reduce(static_cast<u128>(qv) * qv - 1),
                  mulMod(qv - 1, qv + 1, qv));
    }
}

TEST(Modulus, BarrettFullRange128)
{
    // reduce() must be correct for arbitrary 128-bit inputs, not only
    // products of two residues (the BConv MAC accumulates many terms).
    Rng rng(2);
    const u64 qv = 0x0fffffffffac0001ULL; // 60-bit NTT prime shape
    Modulus q(qv);
    for (int i = 0; i < 2000; ++i) {
        u128 x = (static_cast<u128>(rng.next()) << 64) | rng.next();
        u64 expect = static_cast<u64>(x % qv);
        EXPECT_EQ(q.reduce(x), expect);
    }

    // The top of the range, where x * (2^128/q - floor(2^128/q)) /
    // 2^128 comes closest to 1 and the quotient estimate is most
    // likely one short: x = k*q - 1 for the largest k with k*q < 2^128,
    // and 2^128 - 1. reduce() has one fold, so an estimate two short
    // would show here.
    const u128 top = ~static_cast<u128>(0);
    for (u64 v : {97ULL, (1ULL << 61) - 1, (1ULL << 62) - 57}) {
        Modulus m(v);
        const u128 below_multiple = top / v * v - 1;
        for (u128 x : {below_multiple, top}) {
            EXPECT_EQ(m.reduce(x), static_cast<u64>(x % v))
                << "q=" << v << " x=" << static_cast<u64>(x >> 64) << ":"
                << static_cast<u64>(x);
        }
    }
}

TEST(Modulus, ReduceWordMatchesHardwareRemainder)
{
    Rng rng(3);
    const std::vector<u64> qs = {2, 97, (1ULL << 30) + 3, (1ULL << 45) + 59,
                                 0x1fffffffffe00001ULL, (1ULL << 61) - 1,
                                 (1ULL << 62) - 57};
    for (u64 qv : qs) {
        Modulus q(qv);
        const std::vector<u64> edges = {0,          qv - 1, qv,    qv + 1,
                                        2 * qv - 1, 2 * qv, ~0ULL, ~0ULL - qv,
                                        1ULL << 63};
        for (u64 v : edges)
            EXPECT_EQ(q.reduceWord(v), v % qv) << "q=" << qv << " v=" << v;
        for (int i = 0; i < 2000; ++i) {
            const u64 v = rng.next();
            EXPECT_EQ(q.reduceWord(v), v % qv) << "q=" << qv << " v=" << v;
        }
    }
}

TEST(Modulus, ShoupMatchesBarrett)
{
    Rng rng(3);
    for (u64 qv : {(1ULL << 35) + 163, 0x1fffffffffe00001ULL}) {
        Modulus q(qv);
        for (int i = 0; i < 1000; ++i) {
            u64 w = rng.uniform(qv);
            u64 ws = q.shoupPrecompute(w);
            u64 x = rng.uniform(qv);
            EXPECT_EQ(q.mulShoup(x, w, ws), q.mul(x, w));
        }
    }
}

TEST(Modulus, RejectsOutOfRange)
{
    EXPECT_DEATH({ Modulus q(1ULL << 63); (void)q; }, "");
    EXPECT_DEATH({ Modulus q(1); (void)q; }, "");
}

} // namespace
} // namespace ark
