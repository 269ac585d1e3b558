/**
 * @file
 * Tests for the RNS polynomial container and limb-wise arithmetic.
 */

#include <gtest/gtest.h>

#include "common/random.h"
#include "rns/backend.h"
#include "rns/primes.h"

namespace ark {
namespace {

class PolyTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        degree_ = 256;
        auto ps = generatePrimes(40, 4, degree_);
        for (u64 p : ps) {
            moduli_.emplace_back(p);
            tables_.emplace_back(degree_, Modulus(p));
        }
    }

    RnsPoly randomPoly(Rep rep, u64 seed)
    {
        Rng rng(seed);
        RnsPoly p(degree_, moduli_.size(), rep);
        for (size_t l = 0; l < moduli_.size(); ++l) {
            auto limb = rng.uniformVector(degree_, moduli_[l].value());
            std::copy(limb.begin(), limb.end(), p.limb(l));
        }
        return p;
    }

    size_t degree_;
    std::vector<Modulus> moduli_;
    std::vector<NttTables> tables_;
    /** The engine ARK_BACKEND / ARK_THREADS select (scalar default). */
    std::unique_ptr<KernelBackend> be_ = makeKernelBackend(
        backendKindFromEnv(BackendKind::Scalar), backendThreadsFromEnv(0));
};

TEST_F(PolyTest, AddSubInverse)
{
    auto a = randomPoly(Rep::Coeff, 1);
    auto b = randomPoly(Rep::Coeff, 2);
    RnsPoly s(degree_, moduli_.size(), Rep::Coeff);
    RnsPoly back(degree_, moduli_.size(), Rep::Coeff);
    be_->add(a, b, moduli_, s);
    be_->sub(s, b, moduli_, back);
    for (size_t l = 0; l < moduli_.size(); ++l) {
        for (size_t i = 0; i < degree_; ++i)
            EXPECT_EQ(back.limb(l)[i], a.limb(l)[i]);
    }
}

TEST_F(PolyTest, NegIsSubFromZero)
{
    auto a = randomPoly(Rep::Coeff, 3);
    RnsPoly z(degree_, moduli_.size(), Rep::Coeff);
    RnsPoly n1(degree_, moduli_.size(), Rep::Coeff);
    RnsPoly n2(degree_, moduli_.size(), Rep::Coeff);
    be_->neg(a, moduli_, n1);
    be_->sub(z, a, moduli_, n2);
    for (size_t l = 0; l < moduli_.size(); ++l) {
        for (size_t i = 0; i < degree_; ++i)
            EXPECT_EQ(n1.limb(l)[i], n2.limb(l)[i]);
    }
}

TEST_F(PolyTest, NttRoundTripAllLimbs)
{
    auto a = randomPoly(Rep::Coeff, 4);
    auto original = a;
    be_->nttForward(a, tables_);
    EXPECT_EQ(a.rep(), Rep::Eval);
    be_->nttInverse(a, tables_);
    EXPECT_EQ(a.rep(), Rep::Coeff);
    for (size_t l = 0; l < moduli_.size(); ++l) {
        for (size_t i = 0; i < degree_; ++i)
            EXPECT_EQ(a.limb(l)[i], original.limb(l)[i]);
    }
}

TEST_F(PolyTest, MulEvalDistributesOverAdd)
{
    auto a = randomPoly(Rep::Eval, 5);
    auto b = randomPoly(Rep::Eval, 6);
    auto c = randomPoly(Rep::Eval, 7);
    const size_t k = moduli_.size();
    RnsPoly bc(degree_, k, Rep::Eval), ab(degree_, k, Rep::Eval);
    RnsPoly ac(degree_, k, Rep::Eval), lhs(degree_, k, Rep::Eval);
    RnsPoly rhs(degree_, k, Rep::Eval);
    be_->add(b, c, moduli_, bc);
    be_->mulEval(a, bc, moduli_, lhs);
    be_->mulEval(a, b, moduli_, ab);
    be_->mulEval(a, c, moduli_, ac);
    be_->add(ab, ac, moduli_, rhs);
    for (size_t l = 0; l < k; ++l) {
        for (size_t i = 0; i < degree_; ++i)
            EXPECT_EQ(lhs.limb(l)[i], rhs.limb(l)[i]);
    }
}

TEST_F(PolyTest, MulAccEqualsMulPlusAdd)
{
    auto a = randomPoly(Rep::Eval, 8);
    auto b = randomPoly(Rep::Eval, 9);
    auto acc0 = randomPoly(Rep::Eval, 10);
    const size_t k = moduli_.size();
    RnsPoly prod(degree_, k, Rep::Eval), expect(degree_, k, Rep::Eval);
    be_->mulEval(a, b, moduli_, prod);
    be_->add(acc0, prod, moduli_, expect);
    auto acc = acc0;
    be_->mulAccEval(a, b, moduli_, acc);
    for (size_t l = 0; l < k; ++l) {
        for (size_t i = 0; i < degree_; ++i)
            EXPECT_EQ(acc.limb(l)[i], expect.limb(l)[i]);
    }
}

TEST_F(PolyTest, ScalarMulMatchesElementwise)
{
    auto a = randomPoly(Rep::Coeff, 11);
    std::vector<u64> scalars;
    for (auto &m : moduli_)
        scalars.push_back(m.value() / 3);
    RnsPoly r(degree_, moduli_.size(), Rep::Coeff);
    be_->mulScalar(a, scalars, moduli_, r);
    for (size_t l = 0; l < moduli_.size(); ++l) {
        for (size_t i = 0; i < degree_; ++i)
            EXPECT_EQ(r.limb(l)[i],
                      moduli_[l].mul(a.limb(l)[i], scalars[l]));
    }
}

TEST_F(PolyTest, AddScalarAddsToEveryWordOfEachLimb)
{
    // addScalar adds scalar_per_limb[l] to ALL N words of limb l,
    // not just coefficient 0 (the documented CAdd semantics: constant
    // polys are constant across the evaluation domain).
    auto a = randomPoly(Rep::Eval, 20);
    std::vector<u64> scalars;
    for (auto &m : moduli_)
        scalars.push_back(m.value() / 7 + 3);
    RnsPoly r(degree_, moduli_.size(), Rep::Eval);
    be_->addScalar(a, scalars, moduli_, r);
    for (size_t l = 0; l < moduli_.size(); ++l) {
        const u64 q = moduli_[l].value();
        for (size_t i = 0; i < degree_; ++i)
            EXPECT_EQ(r.limb(l)[i], addMod(a.limb(l)[i], scalars[l], q));
    }
}

TEST_F(PolyTest, FromSignedHandlesNegatives)
{
    std::vector<i64> coeffs(degree_, 0);
    coeffs[0] = -1;
    coeffs[1] = 5;
    coeffs[2] = -1000000;
    auto p = polyFromSigned(coeffs, moduli_);
    for (size_t l = 0; l < moduli_.size(); ++l) {
        u64 q = moduli_[l].value();
        EXPECT_EQ(p.limb(l)[0], q - 1);
        EXPECT_EQ(p.limb(l)[1], 5u);
        EXPECT_EQ(p.limb(l)[2], q - 1000000);
        EXPECT_EQ(p.limb(l)[3], 0u);
    }
}

TEST_F(PolyTest, ResizeLimbs)
{
    auto a = randomPoly(Rep::Coeff, 12);
    a.resizeLimbs(2);
    EXPECT_EQ(a.numLimbs(), 2u);
}

TEST_F(PolyTest, MulOnCoeffRepDies)
{
    auto a = randomPoly(Rep::Coeff, 13);
    auto b = randomPoly(Rep::Coeff, 14);
    RnsPoly r(degree_, moduli_.size(), Rep::Coeff);
    EXPECT_DEATH(be_->mulEval(a, b, moduli_, r), "");
}

} // namespace
} // namespace ark
