/**
 * @file
 * Tests for Galois automorphisms: group laws in the coefficient domain
 * and consistency between the coefficient and evaluation domains.
 */

#include <gtest/gtest.h>

#include "common/random.h"
#include "rns/automorphism.h"
#include "rns/backend.h"
#include "rns/primes.h"

namespace ark {
namespace {

class AutoTest : public ::testing::TestWithParam<size_t>
{
  protected:
    void SetUp() override
    {
        degree_ = GetParam();
        prime_ = generatePrimes(40, 1, degree_).front();
        moduli_ = {Modulus(prime_)};
        tables_.emplace_back(degree_, Modulus(prime_));
    }

    RnsPoly randomPoly(Rep rep, u64 seed)
    {
        Rng rng(seed);
        RnsPoly p(degree_, 1, rep);
        auto v = rng.uniformVector(degree_, prime_);
        std::copy(v.begin(), v.end(), p.limb(0));
        return p;
    }

    size_t degree_;
    u64 prime_;
    std::vector<Modulus> moduli_;
    std::vector<NttTables> tables_;
    /** The engine ARK_BACKEND / ARK_THREADS select (scalar default). */
    std::unique_ptr<KernelBackend> be_ = makeKernelBackend(
        backendKindFromEnv(BackendKind::Scalar), backendThreadsFromEnv(0));
};

TEST_P(AutoTest, IdentityElement)
{
    Automorphism id(1, degree_);
    auto p = randomPoly(Rep::Coeff, 1);
    auto q = be_->automorphism(id, p, moduli_);
    for (size_t i = 0; i < degree_; ++i)
        EXPECT_EQ(q.limb(0)[i], p.limb(0)[i]);
}

TEST_P(AutoTest, GroupComposition)
{
    // psi_g2(psi_g1(P)) == psi_{g1*g2 mod 2N}(P).
    const u64 m = 2 * degree_;
    u64 g1 = galoisElt(1, degree_);
    u64 g2 = galoisElt(3, degree_);
    Automorphism a1(g1, degree_), a2(g2, degree_);
    Automorphism a12(static_cast<u64>((static_cast<u128>(g1) * g2) % m),
                     degree_);
    auto p = randomPoly(Rep::Coeff, 2);
    auto lhs =
        be_->automorphism(a2, be_->automorphism(a1, p, moduli_), moduli_);
    auto rhs = be_->automorphism(a12, p, moduli_);
    for (size_t i = 0; i < degree_; ++i)
        EXPECT_EQ(lhs.limb(0)[i], rhs.limb(0)[i]);
}

TEST_P(AutoTest, RotationInverse)
{
    // Rotating by r then by -r is the identity.
    for (i64 r : {1, 2, 5}) {
        Automorphism fwd(galoisElt(r, degree_), degree_);
        Automorphism bwd(galoisElt(-r, degree_), degree_);
        auto p = randomPoly(Rep::Coeff, 3 + r);
        auto q = be_->automorphism(bwd, be_->automorphism(fwd, p, moduli_),
                                   moduli_);
        for (size_t i = 0; i < degree_; ++i)
            EXPECT_EQ(q.limb(0)[i], p.limb(0)[i]);
    }
}

TEST_P(AutoTest, ConjugationIsInvolution)
{
    Automorphism conj(galoisEltConjugate(degree_), degree_);
    auto p = randomPoly(Rep::Coeff, 4);
    auto q = be_->automorphism(conj, be_->automorphism(conj, p, moduli_),
                               moduli_);
    for (size_t i = 0; i < degree_; ++i)
        EXPECT_EQ(q.limb(0)[i], p.limb(0)[i]);
}

TEST_P(AutoTest, EvalPermutationMatchesCoeffRoute)
{
    // applyEval on NTT(x) must equal NTT(applyCoeff(x)).
    for (i64 r : {1, 2, 7}) {
        Automorphism a(galoisElt(r, degree_), degree_);
        auto p = randomPoly(Rep::Coeff, 5 + r);

        auto via_coeff = be_->automorphism(a, p, moduli_);
        be_->nttForward(via_coeff, tables_);

        auto eval = p;
        be_->nttForward(eval, tables_);
        auto via_eval = be_->automorphism(a, eval, moduli_);

        for (size_t i = 0; i < degree_; ++i)
            EXPECT_EQ(via_eval.limb(0)[i], via_coeff.limb(0)[i])
                << "r=" << r << " i=" << i;
    }
}

TEST_P(AutoTest, CoeffMapMovesMonomialsWithSign)
{
    // psi_g(X^i) = +/- X^{i*g mod N}: check a single monomial.
    u64 g = galoisElt(1, degree_);
    Automorphism a(g, degree_);
    RnsPoly p(degree_, 1, Rep::Coeff);
    p.limb(0)[1] = 1; // P = X
    auto q = be_->automorphism(a, p, moduli_);
    u64 target = g % (2 * degree_);
    size_t idx = target & (degree_ - 1);
    u64 expect = target >= degree_ ? prime_ - 1 : 1;
    EXPECT_EQ(q.limb(0)[idx], expect);
    // All other coefficients remain zero.
    for (size_t i = 0; i < degree_; ++i) {
        if (i != idx) {
            EXPECT_EQ(q.limb(0)[i], 0u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AutoTest,
                         ::testing::Values<size_t>(16, 64, 256, 1024));

TEST(GaloisElt, RotationAmountsWrap)
{
    const size_t n = 64;
    // Rotation by n/2 slots is the identity on the rotation group.
    EXPECT_EQ(galoisElt(0, n), 1u);
    EXPECT_EQ(galoisElt(static_cast<i64>(n / 2), n), 1u);
    EXPECT_EQ(galoisElt(1, n), 5u);
    // galoisElt(-1) * galoisElt(1) == 1 mod 2N.
    u64 g = galoisElt(1, n), gi = galoisElt(-1, n);
    EXPECT_EQ((g * gi) % (2 * n), 1u);
}

} // namespace
} // namespace ark
