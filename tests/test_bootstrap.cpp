/**
 * @file
 * End-to-end bootstrapping tests on the toy bootstrappable parameter
 * set: precision of the refreshed ciphertext, level recovery, EvalMod
 * accuracy, and the Min-KS / OF-Limb working-set reductions.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "boot/bootstrapper.h"
#include "ckks/encryptor.h"

namespace ark {
namespace {

class BootTest : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        params_ = new CkksParams(CkksParams::testBoot());
        ctx_ = new CkksContext(*params_);
        rng_ = new Rng(20220501);
        enc_ = new CkksEncoder(*ctx_);
        keygen_ = new KeyGenerator(*ctx_, *rng_);
        sk_ = new SecretKey(keygen_->secretKey());
        encryptor_ = new CkksEncryptor(*ctx_, *rng_);
        decryptor_ = new CkksDecryptor(*ctx_, *sk_);
        eval_ = new CkksEvaluator(*ctx_);
    }

    static void TearDownTestSuite()
    {
        delete eval_;
        delete decryptor_;
        delete encryptor_;
        delete sk_;
        delete keygen_;
        delete enc_;
        delete rng_;
        delete ctx_;
        delete params_;
    }

    std::vector<Complex> randomMessage(u64 seed, double mag = 0.5)
    {
        Rng rng(seed);
        std::vector<Complex> m(params_->num_slots);
        for (auto &x : m)
            x = Complex((rng.uniformReal() * 2 - 1) * mag,
                        (rng.uniformReal() * 2 - 1) * mag);
        return m;
    }

    Ciphertext encryptAtLevel0(const std::vector<Complex> &m,
                               CkksEncryptor *encryptor = nullptr)
    {
        // Encode at Delta0 = q0 / msg_ratio: the message ratio bounds
        // the precision amplification of bootstrapping.
        const double delta0 =
            static_cast<double>(ctx_->qModuli()[0].value()) / 256.0;
        auto pt = enc_->encode(m, 0, delta0);
        auto ct = (encryptor ? encryptor : encryptor_)
                      ->encryptSymmetric(pt, *sk_);
        ct.slots = params_->num_slots;
        return ct;
    }

    std::vector<Complex> decrypt(const Ciphertext &ct)
    {
        return enc_->decode(decryptor_->decrypt(ct), params_->num_slots);
    }

    static double maxErr(const std::vector<Complex> &a,
                         const std::vector<Complex> &b)
    {
        double e = 0;
        for (size_t i = 0; i < a.size(); ++i)
            e = std::max(e, std::abs(a[i] - b[i]));
        return e;
    }

    static CkksParams *params_;
    static CkksContext *ctx_;
    static Rng *rng_;
    static CkksEncoder *enc_;
    static KeyGenerator *keygen_;
    static SecretKey *sk_;
    static CkksEncryptor *encryptor_;
    static CkksDecryptor *decryptor_;
    static CkksEvaluator *eval_;
};

CkksParams *BootTest::params_ = nullptr;
CkksContext *BootTest::ctx_ = nullptr;
Rng *BootTest::rng_ = nullptr;
CkksEncoder *BootTest::enc_ = nullptr;
KeyGenerator *BootTest::keygen_ = nullptr;
SecretKey *BootTest::sk_ = nullptr;
CkksEncryptor *BootTest::encryptor_ = nullptr;
CkksDecryptor *BootTest::decryptor_ = nullptr;
CkksEvaluator *BootTest::eval_ = nullptr;

TEST_F(BootTest, EvalModRecoversFractionalPart)
{
    // Feed x = f + I with integer I and small fraction f; EvalMod
    // returns exp(2*pi*i*x)/(2*pi), whose imaginary part must be f
    // (x mod 1, centered) and whose real part is cos(2*pi*f)/(2*pi).
    Rng rng(31);
    std::vector<Complex> x(params_->num_slots);
    std::vector<double> frac(params_->num_slots);
    for (size_t i = 0; i < x.size(); ++i) {
        double f = (rng.uniformReal() - 0.5) * 0.01;
        i64 integer = static_cast<i64>(rng.uniform(21)) - 10;
        frac[i] = f;
        x[i] = Complex(static_cast<double>(integer) + f, 0.0);
    }
    auto pt = enc_->encode(x, ctx_->maxLevel());
    auto ct = encryptor_->encryptSymmetric(pt, *sk_);
    ct.slots = params_->num_slots;

    KeyCache keys(*keygen_, *sk_, ctx_->degree());
    EvalModConfig cfg{15, 8};
    auto out = decrypt(evalMod(*eval_, ct, keys.multiplication(), cfg));
    for (size_t i = 0; i < out.size(); ++i) {
        EXPECT_NEAR(out[i].imag(), frac[i], 2e-4) << "slot " << i;
        EXPECT_NEAR(out[i].real(),
                    std::cos(2 * M_PI * frac[i]) / (2 * M_PI), 2e-4)
            << "slot " << i;
    }
}

TEST_F(BootTest, BootstrapPrecisionFloor)
{
    // -log2(max slot error) of a Min-KS + OF-Limb bootstrap, on three
    // messages. The floor is the minimum measured over these seeds
    // with the sin/cos double-angle EvalMod (16.25 bits, seed 42),
    // minus one bit.
    constexpr double kFloorBits = 15.2;
    BootConfig cfg;
    cfg.schedule = KeySchedule::MinKS;
    cfg.pt_mode = PlaintextMode::OFLimb;
    Bootstrapper boot(*ctx_, *enc_, cfg);
    KeyCache keys(*keygen_, *sk_, ctx_->degree());
    for (u64 seed : {41, 42, 43}) {
        // A per-seed encryptor keeps the noise independent of which
        // tests ran before this one.
        Rng rng(seed);
        CkksEncryptor encryptor(*ctx_, rng);
        auto m = randomMessage(seed);
        auto out = decrypt(
            boot.bootstrap(*eval_, encryptAtLevel0(m, &encryptor), keys));
        EXPECT_GE(-std::log2(maxErr(m, out)), kFloorBits)
            << "seed " << seed;
    }
}

TEST_F(BootTest, BootstrapRefreshesLevelZeroCiphertext)
{
    BootConfig cfg;
    cfg.schedule = KeySchedule::MinKS;
    cfg.pt_mode = PlaintextMode::OFLimb;
    Bootstrapper boot(*ctx_, *enc_, cfg);
    KeyCache keys(*keygen_, *sk_, ctx_->degree());

    auto m = randomMessage(32);
    auto ct0 = encryptAtLevel0(m);
    BootStats stats;
    auto refreshed = boot.bootstrap(*eval_, ct0, keys, &stats);

    EXPECT_EQ(refreshed.level(), boot.outputLevel());
    EXPECT_GT(refreshed.level(), 0);
    EXPECT_LT(maxErr(m, decrypt(refreshed)), 5e-2);
    EXPECT_GT(stats.hidft.rotations, 0u);
    EXPECT_GT(stats.hdft.pmults, 0u);
    // Two EvalMods of 5 basis products, 3 group products and one
    // squaring per double angle (r = 8).
    EXPECT_EQ(stats.evalmod_mults,
              2u * static_cast<size_t>(evalModMults(cfg.evalmod)));
    EXPECT_EQ(stats.evalmod_mults, 32u);
}

TEST_F(BootTest, BootstrappedCiphertextSupportsFurtherMults)
{
    BootConfig cfg;
    Bootstrapper boot(*ctx_, *enc_, cfg);
    KeyCache keys(*keygen_, *sk_, ctx_->degree());

    auto m = randomMessage(33);
    auto refreshed = boot.bootstrap(*eval_, encryptAtLevel0(m), keys);

    // Square the refreshed ciphertext: impossible before bootstrapping.
    auto sq = eval_->rescale(eval_->square(refreshed,
                                           keys.multiplication()));
    auto out = decrypt(sq);
    double err = 0;
    for (size_t i = 0; i < m.size(); ++i)
        err = std::max(err, std::abs(out[i] - m[i] * m[i]));
    EXPECT_LT(err, 1e-1);
}

TEST_F(BootTest, MinKsUsesFewerKeysThanBaseline)
{
    auto m = randomMessage(34);

    BootConfig base_cfg;
    base_cfg.schedule = KeySchedule::Baseline;
    base_cfg.pt_mode = PlaintextMode::Full;
    Bootstrapper base_boot(*ctx_, *enc_, base_cfg);
    KeyCache base_keys(*keygen_, *sk_, ctx_->degree());
    BootStats base_stats;
    auto base_out = base_boot.bootstrap(*eval_, encryptAtLevel0(m),
                                        base_keys, &base_stats);

    BootConfig mk_cfg;
    mk_cfg.schedule = KeySchedule::MinKS;
    mk_cfg.pt_mode = PlaintextMode::Full;
    Bootstrapper mk_boot(*ctx_, *enc_, mk_cfg);
    KeyCache mk_keys(*keygen_, *sk_, ctx_->degree());
    BootStats mk_stats;
    auto mk_out = mk_boot.bootstrap(*eval_, encryptAtLevel0(m), mk_keys,
                                    &mk_stats);

    // Both schedules compute the same function...
    EXPECT_LT(maxErr(decrypt(base_out), decrypt(mk_out)), 1e-2);
    // ...but Min-KS materializes far fewer distinct rotation keys
    // (2 per H-(I)DFT instead of bs+gs-2): this is the paper's
    // inter-operation key reuse.
    EXPECT_EQ(mk_stats.hidft.distinct_evks, 2u);
    EXPECT_EQ(mk_stats.hdft.distinct_evks, 2u);
    EXPECT_GT(base_stats.hidft.distinct_evks, 10u);
    EXPECT_LT(mk_keys.distinctGaloisKeys(),
              base_keys.distinctGaloisKeys());
    EXPECT_LT(mk_keys.byteSize(), base_keys.byteSize());
}

TEST_F(BootTest, OfLimbBootstrapMatchesFull)
{
    auto m = randomMessage(35);

    BootConfig full_cfg;
    full_cfg.pt_mode = PlaintextMode::Full;
    Bootstrapper full_boot(*ctx_, *enc_, full_cfg);
    KeyCache keys(*keygen_, *sk_, ctx_->degree());
    auto ct0 = encryptAtLevel0(m);
    auto full_out = full_boot.bootstrap(*eval_, ct0, keys);

    BootConfig of_cfg;
    of_cfg.pt_mode = PlaintextMode::OFLimb;
    Bootstrapper of_boot(*ctx_, *enc_, of_cfg);
    auto of_out = of_boot.bootstrap(*eval_, ct0, keys);

    EXPECT_LT(maxErr(decrypt(full_out), decrypt(of_out)), 1e-9);
}

} // namespace
} // namespace ark
