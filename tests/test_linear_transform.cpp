/**
 * @file
 * Tests for BSGS homomorphic linear transforms: correctness against
 * plain matrix-vector products, equivalence of the Baseline and Min-KS
 * key schedules, OF-Limb plaintext reconstruction, and the evk-count
 * reduction Min-KS guarantees. MinimalKS is modelled only, so a
 * transform refuses it.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "boot/linear_transform.h"
#include "ckks/encryptor.h"
#include "support/reference_kernels.h"

namespace ark {
namespace {

class LtTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        ctx_ = std::make_unique<CkksContext>(CkksParams::testTiny());
        rng_ = std::make_unique<Rng>(777);
        enc_ = std::make_unique<CkksEncoder>(*ctx_);
        keygen_ = std::make_unique<KeyGenerator>(*ctx_, *rng_);
        sk_ = keygen_->secretKey();
        encryptor_ = std::make_unique<CkksEncryptor>(*ctx_, *rng_);
        decryptor_ = std::make_unique<CkksDecryptor>(*ctx_, sk_);
        eval_ = std::make_unique<CkksEvaluator>(*ctx_);
        slots_ = 32;
    }

    SlotMatrix randomMatrix(u64 seed)
    {
        Rng rng(seed);
        SlotMatrix m;
        m.n = slots_;
        m.data.resize(slots_ * slots_);
        for (auto &v : m.data)
            v = Complex(rng.uniformReal() * 2 - 1,
                        rng.uniformReal() * 2 - 1);
        return m;
    }

    std::vector<Complex> randomVector(u64 seed)
    {
        Rng rng(seed);
        std::vector<Complex> v(slots_);
        for (auto &x : v)
            x = Complex(rng.uniformReal() * 2 - 1,
                        rng.uniformReal() * 2 - 1);
        return v;
    }

    Ciphertext encrypt(const std::vector<Complex> &m)
    {
        auto pt = enc_->encode(m, ctx_->maxLevel());
        auto ct = encryptor_->encryptSymmetric(pt, sk_);
        ct.slots = slots_;
        return ct;
    }

    std::vector<Complex> decrypt(const Ciphertext &ct)
    {
        return enc_->decode(decryptor_->decrypt(ct), slots_);
    }

    std::unique_ptr<CkksContext> ctx_;
    std::unique_ptr<Rng> rng_;
    std::unique_ptr<CkksEncoder> enc_;
    std::unique_ptr<KeyGenerator> keygen_;
    SecretKey sk_;
    std::unique_ptr<CkksEncryptor> encryptor_;
    std::unique_ptr<CkksDecryptor> decryptor_;
    std::unique_ptr<CkksEvaluator> eval_;
    size_t slots_;
};

TEST(SlotMatrix, InverseRoundTrip)
{
    Rng rng(1);
    SlotMatrix m;
    m.n = 16;
    m.data.resize(256);
    for (auto &v : m.data)
        v = Complex(rng.uniformReal() * 2 - 1, rng.uniformReal() * 2 - 1);
    auto id = ref::slotMatrixMultiply(m, m.inverse());
    for (size_t r = 0; r < 16; ++r) {
        for (size_t c = 0; c < 16; ++c) {
            Complex expect = r == c ? Complex(1, 0) : Complex(0, 0);
            EXPECT_LT(std::abs(id.at(r, c) - expect), 1e-9);
        }
    }
}

TEST_F(LtTest, BaselineMatchesPlainMatVec)
{
    auto m = randomMatrix(2);
    auto z = randomVector(3);
    LinearTransform lt(*ctx_, *enc_, m, 1, PlaintextMode::Full);
    KeyCache keys(*keygen_, sk_, ctx_->degree());
    LtStats stats;
    auto out = decrypt(lt.apply(*eval_, encrypt(z), KeySchedule::Baseline,
                                keys, &stats));
    auto expect = ref::slotMatrixApply(m, z);
    for (size_t i = 0; i < slots_; ++i)
        EXPECT_LT(std::abs(out[i] - expect[i]), 1e-2) << "slot " << i;
    EXPECT_GT(stats.rotations, 0u);
    EXPECT_GT(stats.pmults, 0u);
}

TEST_F(LtTest, MinKsMatchesBaseline)
{
    auto m = randomMatrix(4);
    auto z = randomVector(5);
    LinearTransform lt(*ctx_, *enc_, m, 1, PlaintextMode::Full);
    KeyCache keys(*keygen_, sk_, ctx_->degree());
    auto base =
        decrypt(lt.apply(*eval_, encrypt(z), KeySchedule::Baseline, keys));
    auto minks =
        decrypt(lt.apply(*eval_, encrypt(z), KeySchedule::MinKS, keys));
    for (size_t i = 0; i < slots_; ++i)
        EXPECT_LT(std::abs(base[i] - minks[i]), 1e-2);
}

TEST_F(LtTest, MinKsUsesExactlyTwoEvks)
{
    auto m = randomMatrix(6);
    LinearTransform lt(*ctx_, *enc_, m, 1, PlaintextMode::Full);

    KeyCache keys_minks(*keygen_, sk_, ctx_->degree());
    LtStats s_minks;
    (void)lt.apply(*eval_, encrypt(randomVector(7)), KeySchedule::MinKS,
                   keys_minks, &s_minks);
    EXPECT_EQ(s_minks.distinct_evks, 2u);
    EXPECT_EQ(keys_minks.distinctGaloisKeys(), 2u);

    KeyCache keys_base(*keygen_, sk_, ctx_->degree());
    LtStats s_base;
    (void)lt.apply(*eval_, encrypt(randomVector(8)),
                   KeySchedule::Baseline, keys_base, &s_base);
    // Baseline needs (bs-1) + (gs-1) distinct keys.
    EXPECT_EQ(s_base.distinct_evks,
              lt.babySteps() - 1 + lt.giantSteps() - 1);
    EXPECT_GT(keys_base.distinctGaloisKeys(),
              keys_minks.distinctGaloisKeys());
}

TEST_F(LtTest, MinimalKsIsRefused)
{
    LinearTransform lt(*ctx_, *enc_, randomMatrix(6), 1,
                       PlaintextMode::Full);
    KeyCache keys(*keygen_, sk_, ctx_->degree());
    const Ciphertext ct = encrypt(randomVector(7));
    EXPECT_DEATH((void)lt.apply(*eval_, ct, KeySchedule::MinimalKS, keys),
                 "MinimalKS is modelled only");
}

TEST_F(LtTest, OfLimbMatchesFullPlaintexts)
{
    auto m = randomMatrix(9);
    auto z = randomVector(10);
    LinearTransform lt_full(*ctx_, *enc_, m, 1, PlaintextMode::Full);
    LinearTransform lt_of(*ctx_, *enc_, m, 1, PlaintextMode::OFLimb);
    KeyCache keys(*keygen_, sk_, ctx_->degree());

    // One shared ciphertext: the two paths must agree bit-for-bit up
    // to decode rounding, since OF-Limb regenerates identical limbs.
    auto ct = encrypt(z);
    auto full = decrypt(
        lt_full.apply(*eval_, ct, KeySchedule::MinKS, keys));
    auto oflimb = decrypt(
        lt_of.apply(*eval_, ct, KeySchedule::MinKS, keys));
    // OF-Limb regenerates exactly the same limbs, so the two paths
    // agree to floating-point decoding error.
    for (size_t i = 0; i < slots_; ++i)
        EXPECT_LT(std::abs(full[i] - oflimb[i]), 1e-9);
}

TEST_F(LtTest, OfLimbStoresOneLimb)
{
    auto m = randomMatrix(11);
    LinearTransform lt_full(*ctx_, *enc_, m, 1, PlaintextMode::Full);
    LinearTransform lt_of(*ctx_, *enc_, m, 1, PlaintextMode::OFLimb);
    // Paper Section IV-B: OF-Limb cuts plaintext storage to 1/(l+1).
    const size_t limbs = ctx_->maxLevel() + 1;
    EXPECT_EQ(lt_of.plaintexts().storedBytes() * limbs,
              lt_full.plaintexts().storedBytes());
}

TEST_F(LtTest, IdentityTransform)
{
    auto z = randomVector(12);
    LinearTransform lt(*ctx_, *enc_, SlotMatrix::identity(slots_), 1,
                       PlaintextMode::Full);
    KeyCache keys(*keygen_, sk_, ctx_->degree());
    LtStats stats;
    auto out = decrypt(
        lt.apply(*eval_, encrypt(z), KeySchedule::MinKS, keys, &stats));
    for (size_t i = 0; i < slots_; ++i)
        EXPECT_LT(std::abs(out[i] - z[i]), 1e-3);
    // Identity has a single nonzero diagonal: no PMult beyond 1.
    EXPECT_EQ(stats.pmults, 1u);
}

TEST_F(LtTest, StridedTransformMatchesPlain)
{
    // A matrix with mass only on diagonals 0, 4, 8, ...: exercises the
    // stride machinery used by the FFT-like H-(I)DFT stages.
    const size_t stride = 4;
    Rng rng(13);
    SlotMatrix m;
    m.n = slots_;
    m.data.assign(slots_ * slots_, Complex(0, 0));
    for (size_t r = 0; r < slots_; ++r) {
        for (size_t d = 0; d < slots_; d += stride) {
            m.at(r, (r + d) % slots_) =
                Complex(rng.uniformReal() * 2 - 1,
                        rng.uniformReal() * 2 - 1);
        }
    }
    auto z = randomVector(14);
    LinearTransform lt(*ctx_, *enc_, m, stride, PlaintextMode::Full);
    KeyCache keys(*keygen_, sk_, ctx_->degree());
    auto out =
        decrypt(lt.apply(*eval_, encrypt(z), KeySchedule::MinKS, keys));
    auto expect = ref::slotMatrixApply(m, z);
    for (size_t i = 0; i < slots_; ++i)
        EXPECT_LT(std::abs(out[i] - expect[i]), 1e-2);
}

TEST_F(LtTest, OffStrideMassDies)
{
    SlotMatrix m = SlotMatrix::identity(slots_);
    m.at(0, 1) = Complex(1, 0); // diagonal 1 is off the stride-4 grid
    EXPECT_DEATH(
        { LinearTransform lt(*ctx_, *enc_, m, 4, PlaintextMode::Full); },
        "");
}

} // namespace
} // namespace ark
