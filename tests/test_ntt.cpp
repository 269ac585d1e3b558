/**
 * @file
 * Property tests for the negacyclic NTT: round trips, convolution
 * correctness against schoolbook negacyclic multiplication, and
 * linearity, swept over degrees and prime sizes (TEST_P).
 */

#include <gtest/gtest.h>

#include "common/random.h"
#include "rns/ntt.h"
#include "rns/primes.h"

namespace ark {
namespace {

/** Schoolbook negacyclic convolution mod q (X^N + 1). */
std::vector<u64>
negacyclicMul(const std::vector<u64> &a, const std::vector<u64> &b,
              const Modulus &q)
{
    const size_t n = a.size();
    std::vector<u64> r(n, 0);
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
            u64 prod = q.mul(a[i], b[j]);
            size_t k = i + j;
            if (k < n)
                r[k] = q.add(r[k], prod);
            else
                r[k - n] = q.sub(r[k - n], prod);
        }
    }
    return r;
}

class NttTest : public ::testing::TestWithParam<std::tuple<size_t, int>>
{
  protected:
    void SetUp() override
    {
        degree_ = std::get<0>(GetParam());
        int bits = std::get<1>(GetParam());
        prime_ = generatePrimes(bits, 1, degree_).front();
        tables_ = std::make_unique<NttTables>(degree_, Modulus(prime_));
    }

    size_t degree_;
    u64 prime_;
    std::unique_ptr<NttTables> tables_;
};

TEST_P(NttTest, RoundTrip)
{
    Rng rng(101);
    auto v = rng.uniformVector(degree_, prime_);
    auto original = v;
    tables_->forward(v);
    tables_->inverse(v);
    EXPECT_EQ(v, original);
}

TEST_P(NttTest, InverseThenForward)
{
    Rng rng(102);
    auto v = rng.uniformVector(degree_, prime_);
    auto original = v;
    tables_->inverse(v);
    tables_->forward(v);
    EXPECT_EQ(v, original);
}

TEST_P(NttTest, PointwiseEqualsNegacyclicConvolution)
{
    if (degree_ > 512)
        GTEST_SKIP() << "schoolbook reference too slow at this degree";
    Rng rng(103);
    Modulus q(prime_);
    auto a = rng.uniformVector(degree_, prime_);
    auto b = rng.uniformVector(degree_, prime_);
    auto expect = negacyclicMul(a, b, q);

    tables_->forward(a);
    tables_->forward(b);
    std::vector<u64> c(degree_);
    for (size_t i = 0; i < degree_; ++i)
        c[i] = q.mul(a[i], b[i]);
    tables_->inverse(c);
    EXPECT_EQ(c, expect);
}

TEST_P(NttTest, Linearity)
{
    Rng rng(104);
    Modulus q(prime_);
    auto a = rng.uniformVector(degree_, prime_);
    auto b = rng.uniformVector(degree_, prime_);
    std::vector<u64> sum(degree_);
    for (size_t i = 0; i < degree_; ++i)
        sum[i] = q.add(a[i], b[i]);

    tables_->forward(a);
    tables_->forward(b);
    tables_->forward(sum);
    for (size_t i = 0; i < degree_; ++i)
        EXPECT_EQ(sum[i], q.add(a[i], b[i]));
}

TEST_P(NttTest, TransformOfUnitImpulse)
{
    // NTT of X^0 = 1 is the all-ones vector (every evaluation is 1).
    std::vector<u64> v(degree_, 0);
    v[0] = 1;
    tables_->forward(v);
    for (size_t i = 0; i < degree_; ++i)
        EXPECT_EQ(v[i], 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NttTest,
    ::testing::Combine(::testing::Values<size_t>(8, 64, 256, 1024, 4096),
                       ::testing::Values(30, 45, 60)));

/**
 * The inverse twiddles come from powers of one psi^-1; they must equal
 * the per-entry inverses of the forward twiddles, with their Shoup
 * words, and 1/N must be the inverse of N. 0xffffffffff1c001 is a
 * 60-bit special prime the downward scan picks.
 */
TEST(NttTables, InverseTwiddlesMatchPerEntryInverses)
{
    for (u64 q : std::vector<u64>{generatePrimes(42, 1, 4096).front(),
                                  generatePrimesBelow(60, 1, 4096).front(),
                                  0xffffffffff1c001ull,
                                  generatePrimes(61, 1, 4096).front()}) {
        SCOPED_TRACE("q " + std::to_string(q));
        const Modulus m(q);
        const NttTables t(4096, m);
        for (size_t i = 0; i < t.degree(); ++i) {
            const u64 wi = m.inv(t.rootPowers()[i]);
            ASSERT_EQ(t.invRootPowers()[i], wi) << "i=" << i;
            ASSERT_EQ(t.invRootPowersShoup()[i], m.shoupPrecompute(wi))
                << "i=" << i;
        }
        EXPECT_EQ(m.mul(t.nInv(), 4096 % q), 1u);
    }
}

TEST(NttTables, RejectsNonNttFriendlyPrime)
{
    // 1000003 is prime but 1000002 is not divisible by 2*64.
    EXPECT_DEATH({ NttTables t(64, Modulus(1000003)); (void)t; }, "");
}

} // namespace
} // namespace ark
