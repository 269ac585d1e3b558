/**
 * @file
 * ARK_* environment-knob validation (common/env.h and its callers):
 * junk values must be rejected with a clear error (process exit
 * naming the offending value), never silently fall back or wrap —
 * while a VALID tier request the host cannot satisfy (ARK_BACKEND=simd
 * on a machine without that ISA) must clamp to what the CPU supports
 * and keep computing correctly, never abort.
 */

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.h"
#include "common/random.h"
#include "rns/backend.h"
#include "rns/backend_kind.h"
#include "rns/cpu_features.h"
#include "rns/primes.h"
#include "serve/batch_server.h"

namespace ark {
namespace {

TEST(EnvConfig, ParseU64IsStrictDigitsOnly)
{
    u64 v = 99;
    EXPECT_FALSE(parseU64(nullptr, 0, 10, v));
    EXPECT_FALSE(parseU64("", 0, 10, v));
    EXPECT_FALSE(parseU64("+5", 0, 10, v));
    EXPECT_FALSE(parseU64(" 5", 0, 10, v));
    EXPECT_FALSE(parseU64("5 ", 0, 10, v));
    EXPECT_FALSE(parseU64("5x", 0, 10, v));
    EXPECT_FALSE(parseU64("-1", 0, 10, v));
    // 2^64: one past the largest u64 must not wrap to 0.
    EXPECT_FALSE(parseU64("18446744073709551616", 0, ~u64{0}, v));
    EXPECT_EQ(v, 99u); // a rejected parse leaves the output alone

    EXPECT_TRUE(parseU64("18446744073709551615", 0, ~u64{0}, v));
    EXPECT_EQ(v, ~u64{0});
    EXPECT_TRUE(parseU64("007", 0, 10, v));
    EXPECT_EQ(v, 7u);
    EXPECT_TRUE(parseU64("0000", 0, 10, v));
    EXPECT_EQ(v, 0u);
}

TEST(EnvConfig, ParseU64BoundsAreInclusive)
{
    u64 v = 0;
    EXPECT_TRUE(parseU64("3", 3, 9, v));
    EXPECT_EQ(v, 3u);
    EXPECT_TRUE(parseU64("9", 3, 9, v));
    EXPECT_EQ(v, 9u);
    EXPECT_FALSE(parseU64("2", 3, 9, v));
    EXPECT_FALSE(parseU64("10", 3, 9, v));
    EXPECT_TRUE(parseU64("5", 5, 5, v));
    EXPECT_EQ(v, 5u);
}

TEST(EnvConfig, ParseBackendKindAcceptsKnownNames)
{
    BackendKind kind = BackendKind::Parallel;
    EXPECT_TRUE(parseBackendKind("scalar", kind));
    EXPECT_EQ(kind, BackendKind::Scalar);
    EXPECT_TRUE(parseBackendKind("parallel", kind));
    EXPECT_EQ(kind, BackendKind::Parallel);
    EXPECT_TRUE(parseBackendKind("simd", kind));
    EXPECT_EQ(kind, BackendKind::Simd);
}

TEST(EnvConfig, ParseBackendKindRejectsJunk)
{
    BackendKind kind;
    EXPECT_FALSE(parseBackendKind("", kind));
    EXPECT_FALSE(parseBackendKind("Scalar", kind));
    EXPECT_FALSE(parseBackendKind("scalar ", kind));
    EXPECT_FALSE(parseBackendKind("vectorized", kind));
    EXPECT_FALSE(parseBackendKind("parallel,4", kind));
}

/** ARK_THREADS' parse: digits only, 0 (hardware concurrency) up to
 *  kMaxBackendThreads, as backendThreadsFromEnv calls envU64. */
bool
parseThreads(const char *s, u64 &out)
{
    return parseU64(s, 0, kMaxBackendThreads, out);
}

TEST(EnvConfig, ParseBackendThreadsAcceptsIntegers)
{
    u64 t = 99;
    EXPECT_TRUE(parseThreads("0", t));
    EXPECT_EQ(t, 0u); // 0 = hardware concurrency
    EXPECT_TRUE(parseThreads("8", t));
    EXPECT_EQ(t, 8u);
    EXPECT_TRUE(parseThreads("4096", t));
    EXPECT_EQ(t, kMaxBackendThreads);
    EXPECT_TRUE(parseThreads("007", t));
    EXPECT_EQ(t, 7u);
}

TEST(EnvConfig, ParseBackendThreadsRejectsJunk)
{
    u64 t = 0;
    EXPECT_FALSE(parseThreads(nullptr, t));
    EXPECT_FALSE(parseThreads("", t));
    EXPECT_FALSE(parseThreads("-1", t)); // strtoul would wrap!
    EXPECT_FALSE(parseThreads("+4", t));
    EXPECT_FALSE(parseThreads(" 4", t));
    EXPECT_FALSE(parseThreads("4 ", t));
    EXPECT_FALSE(parseThreads("4threads", t));
    EXPECT_FALSE(parseThreads("1e3", t));
    EXPECT_FALSE(parseThreads("0x10", t));
    EXPECT_FALSE(parseThreads("4097", t)); // above the cap
    // Would overflow unsigned long: must be rejected, not truncated.
    EXPECT_FALSE(parseThreads("99999999999999999999999", t));
}

TEST(EnvConfig, EnvReadersUseValidValues)
{
    setenv("ARK_BACKEND", "parallel", 1);
    EXPECT_EQ(backendKindFromEnv(BackendKind::Scalar),
              BackendKind::Parallel);
    unsetenv("ARK_BACKEND");
    EXPECT_EQ(backendKindFromEnv(BackendKind::Scalar),
              BackendKind::Scalar);

    setenv("ARK_THREADS", "3", 1);
    EXPECT_EQ(backendThreadsFromEnv(0), 3u);
    unsetenv("ARK_THREADS");
    EXPECT_EQ(backendThreadsFromEnv(5), 5u);
    // Empty counts as unset, not as junk.
    setenv("ARK_THREADS", "", 1);
    EXPECT_EQ(backendThreadsFromEnv(2), 2u);
    unsetenv("ARK_THREADS");
}

TEST(EnvConfigDeathTest, JunkBackendExitsWithClearError)
{
    setenv("ARK_BACKEND", "vectorized", 1);
    EXPECT_EXIT((void)backendKindFromEnv(BackendKind::Scalar),
                ::testing::ExitedWithCode(1),
                "invalid ARK_BACKEND 'vectorized'");
    unsetenv("ARK_BACKEND");
}

TEST(EnvConfigDeathTest, JunkThreadsExitsWithClearError)
{
    setenv("ARK_THREADS", "-1", 1);
    EXPECT_EXIT((void)backendThreadsFromEnv(0),
                ::testing::ExitedWithCode(1),
                "invalid ARK_THREADS '-1'");
    unsetenv("ARK_THREADS");
}

TEST(EnvConfig, ParseSimdTierAcceptsKnownNames)
{
    SimdTier tier = SimdTier::Avx512;
    EXPECT_TRUE(parseSimdTier("scalar", tier));
    EXPECT_EQ(tier, SimdTier::Scalar);
    EXPECT_TRUE(parseSimdTier("avx2", tier));
    EXPECT_EQ(tier, SimdTier::Avx2);
    EXPECT_TRUE(parseSimdTier("avx512", tier));
    EXPECT_EQ(tier, SimdTier::Avx512);
    EXPECT_TRUE(parseSimdTier("avx512ifma", tier));
    EXPECT_EQ(tier, SimdTier::Avx512Ifma);
}

TEST(EnvConfig, ParseSimdTierRejectsJunk)
{
    SimdTier tier;
    EXPECT_FALSE(parseSimdTier(nullptr, tier));
    EXPECT_FALSE(parseSimdTier("", tier));
    EXPECT_FALSE(parseSimdTier("AVX2", tier));
    EXPECT_FALSE(parseSimdTier("avx2 ", tier));
    EXPECT_FALSE(parseSimdTier("avx-512", tier));
    EXPECT_FALSE(parseSimdTier("sse", tier));
    EXPECT_FALSE(parseSimdTier("avx512ifma52", tier));
    // There is no NEON tier: aarch64 hosts run the scalar table.
    EXPECT_FALSE(parseSimdTier("neon", tier));
}

TEST(EnvConfig, SimdTierEnvReaderUsesValidValues)
{
    setenv("ARK_SIMD_TIER", "avx2", 1);
    EXPECT_EQ(simdTierFromEnv(SimdTier::Avx512), SimdTier::Avx2);
    unsetenv("ARK_SIMD_TIER");
    EXPECT_EQ(simdTierFromEnv(SimdTier::Avx512), SimdTier::Avx512);
    // Empty counts as unset, not as junk.
    setenv("ARK_SIMD_TIER", "", 1);
    EXPECT_EQ(simdTierFromEnv(SimdTier::Scalar), SimdTier::Scalar);
    unsetenv("ARK_SIMD_TIER");
}

TEST(EnvConfigDeathTest, JunkSimdTierExitsWithClearError)
{
    setenv("ARK_SIMD_TIER", "turbo", 1);
    EXPECT_EXIT((void)simdTierFromEnv(SimdTier::Avx512),
                ::testing::ExitedWithCode(1),
                "invalid ARK_SIMD_TIER 'turbo' \\(expected 'scalar', "
                "'avx2', 'avx512', 'avx512ifma'\\)");
    unsetenv("ARK_SIMD_TIER");
}

/**
 * Requesting the simd backend never aborts, whatever the host CPU: the
 * tier clamps to what CPUID reports (so ARK_BACKEND=simd on a
 * no-AVX machine silently degrades to the scalar kernels), and the
 * clamped backend still computes bit-correct NTTs. The capped requests
 * below emulate progressively weaker hosts; each must come back at or
 * below both the cap and the detected tier, and match the scalar
 * backend bit for bit.
 */
TEST(EnvConfig, KernelTableClampsToHostAndStaysCorrect)
{
    const size_t degree = 512;
    auto qs = generatePrimes(45, 1, degree);
    NttTables tables(degree, Modulus(qs[0]));
    std::vector<const NttTables *> tp{&tables};
    Rng rng(7);
    RnsPoly ref(degree, 1, Rep::Coeff);
    auto v = rng.uniformVector(degree, qs[0]);
    std::copy(v.begin(), v.end(), ref.limb(0));
    KernelBackend scalar(SimdTier::Scalar);
    RnsPoly want = ref;
    scalar.nttForward(want, tp);

    for (SimdTier cap : {SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512,
                         SimdTier::Avx512Ifma}) {
        SCOPED_TRACE(simdTierName(cap));
        KernelBackend be(cap);
        EXPECT_LE(static_cast<int>(be.tier()), static_cast<int>(cap));
        EXPECT_LE(static_cast<int>(be.tier()),
                  static_cast<int>(detectSimdTier()));
        RnsPoly got = ref;
        be.nttForward(got, tp);
        for (size_t i = 0; i < degree; ++i)
            ASSERT_EQ(got.limb(0)[i], want.limb(0)[i]) << "i=" << i;
    }

    // The forced-fallback path spelled the way a user would: the env
    // caps the tier below what the backend asks for.
    setenv("ARK_SIMD_TIER", "scalar", 1);
    KernelBackend forced(SimdTier::Avx512);
    EXPECT_EQ(forced.tier(), SimdTier::Scalar);
    unsetenv("ARK_SIMD_TIER");
    RnsPoly got = ref;
    forced.nttForward(got, tp);
    for (size_t i = 0; i < degree; ++i)
        ASSERT_EQ(got.limb(0)[i], want.limb(0)[i]) << "i=" << i;
}

/** ARK_BACKEND picks the executor and ARK_SIMD_TIER caps the table,
 *  independently: parallel honours both the cap and ARK_THREADS. */
TEST(EnvConfig, ParallelCellTakesTierCapAndThreads)
{
    setenv("ARK_BACKEND", "parallel", 1);
    setenv("ARK_THREADS", "3", 1);
    setenv("ARK_SIMD_TIER", "avx2", 1);
    auto be = makeKernelBackend(backendKindFromEnv(BackendKind::Scalar),
                                backendThreadsFromEnv(0));
    unsetenv("ARK_BACKEND");
    unsetenv("ARK_THREADS");
    unsetenv("ARK_SIMD_TIER");
    EXPECT_LE(static_cast<int>(be->tier()),
              static_cast<int>(SimdTier::Avx2));
    EXPECT_EQ(be->threads(), 3u);
}

/** The cap never raises a table: scalar stays on the scalar table. */
TEST(EnvConfig, ScalarCellIgnoresHigherTierCap)
{
    setenv("ARK_SIMD_TIER", "avx512", 1);
    auto be = makeKernelBackend(BackendKind::Scalar);
    unsetenv("ARK_SIMD_TIER");
    EXPECT_EQ(be->tier(), SimdTier::Scalar);
    EXPECT_EQ(be->threads(), 1u);
}

// Serving front-end knobs (docs/configuration.md): same discipline as
// the kernel knobs — valid values apply, junk is fatal and names the
// offending value, absent variables leave the config untouched.

TEST(EnvConfig, ServeConfigHonorsEnvOverrides)
{
    unsetenv("ARK_LISTEN_ADDR");
    unsetenv("ARK_LISTEN_PORT");
    unsetenv("ARK_MAX_SESSIONS");
    unsetenv("ARK_MAX_FRAME_MIB");

    const BatchServerConfig defaults = serveConfigFromEnv();
    EXPECT_EQ(defaults.listen_addr, "127.0.0.1");
    EXPECT_EQ(defaults.listen_port, 0);
    EXPECT_EQ(defaults.max_sessions, 8u);
    EXPECT_EQ(defaults.max_frame_bytes, 256ull * 1024 * 1024);

    setenv("ARK_LISTEN_ADDR", "0.0.0.0", 1);
    setenv("ARK_LISTEN_PORT", "19184", 1);
    setenv("ARK_MAX_SESSIONS", "3", 1);
    setenv("ARK_MAX_FRAME_MIB", "64", 1);
    const BatchServerConfig cfg = serveConfigFromEnv();
    EXPECT_EQ(cfg.listen_addr, "0.0.0.0");
    EXPECT_EQ(cfg.listen_port, 19184);
    EXPECT_EQ(cfg.max_sessions, 3u);
    EXPECT_EQ(cfg.max_frame_bytes, 64ull * 1024 * 1024);
    unsetenv("ARK_LISTEN_ADDR");
    unsetenv("ARK_LISTEN_PORT");
    unsetenv("ARK_MAX_SESSIONS");
    unsetenv("ARK_MAX_FRAME_MIB");
}

TEST(EnvConfigDeathTest, JunkListenPortExitsWithClearError)
{
    setenv("ARK_LISTEN_PORT", "70000", 1);
    EXPECT_EXIT((void)serveConfigFromEnv(),
                ::testing::ExitedWithCode(1),
                "invalid ARK_LISTEN_PORT '70000'");
    setenv("ARK_LISTEN_PORT", "-1", 1);
    EXPECT_EXIT((void)serveConfigFromEnv(),
                ::testing::ExitedWithCode(1),
                "invalid ARK_LISTEN_PORT '-1'");
    unsetenv("ARK_LISTEN_PORT");
}

TEST(EnvConfigDeathTest, JunkMaxSessionsExitsWithClearError)
{
    setenv("ARK_MAX_SESSIONS", "0", 1);
    EXPECT_EXIT((void)serveConfigFromEnv(),
                ::testing::ExitedWithCode(1),
                "invalid ARK_MAX_SESSIONS '0'");
    setenv("ARK_MAX_SESSIONS", "lots", 1);
    EXPECT_EXIT((void)serveConfigFromEnv(),
                ::testing::ExitedWithCode(1),
                "invalid ARK_MAX_SESSIONS 'lots'");
    unsetenv("ARK_MAX_SESSIONS");
}

TEST(EnvConfigDeathTest, JunkMaxFrameMibExitsWithClearError)
{
    setenv("ARK_MAX_FRAME_MIB", "1.5", 1);
    EXPECT_EXIT((void)serveConfigFromEnv(),
                ::testing::ExitedWithCode(1),
                "invalid ARK_MAX_FRAME_MIB '1.5'");
    unsetenv("ARK_MAX_FRAME_MIB");
}

/** Every numeric knob serveConfigFromEnv reads, with its range. */
struct ServeKnob
{
    const char *var;
    u64 lo;
    u64 hi;
};

const ServeKnob kServeKnobs[] = {
    {"ARK_LISTEN_PORT", 0, 65535},
    {"ARK_MAX_SESSIONS", 1, 4096},
    {"ARK_MAX_FRAME_MIB", 1, 16384},
    {"ARK_WATCHDOG_MS", 0, 3600000},
    {"ARK_WORKER_STUCK_MS", 1, 3600000},
    {"ARK_IDLE_TIMEOUT_MS", 0, 3600000},
    {"ARK_IO_TIMEOUT_MS", 0, 3600000},
    {"ARK_SLO_P99_MS", 1, 3600000},
};

TEST(EnvConfig, ServeKnobsAcceptBothBounds)
{
    for (const ServeKnob &k : kServeKnobs) {
        SCOPED_TRACE(k.var);
        for (const u64 v : {k.lo, k.hi}) {
            setenv(k.var, std::to_string(v).c_str(), 1);
            (void)serveConfigFromEnv();
        }
        unsetenv(k.var);
    }
}

TEST(EnvConfigDeathTest, ServeKnobsRejectOutOfRangeAndJunk)
{
    for (const ServeKnob &k : kServeKnobs) {
        SCOPED_TRACE(k.var);
        std::vector<std::string> bad = {std::to_string(k.hi + 1), "-1"};
        if (k.lo > 0)
            bad.push_back(std::to_string(k.lo - 1));
        for (const std::string &value : bad) {
            setenv(k.var, value.c_str(), 1);
            EXPECT_EXIT((void)serveConfigFromEnv(),
                        ::testing::ExitedWithCode(1),
                        std::string("invalid ") + k.var + " '" + value +
                            "'");
        }
        unsetenv(k.var);
    }
}

TEST(EnvConfig, EmptyServeEnvValuesCountAsUnset)
{
    // Matches the ARK_BACKEND convention: FOO= is the same as no FOO.
    setenv("ARK_LISTEN_ADDR", "", 1);
    setenv("ARK_LISTEN_PORT", "", 1);
    setenv("ARK_MAX_SESSIONS", "", 1);
    setenv("ARK_MAX_FRAME_MIB", "", 1);
    const BatchServerConfig cfg = serveConfigFromEnv();
    EXPECT_EQ(cfg.listen_addr, "127.0.0.1");
    EXPECT_EQ(cfg.listen_port, 0);
    EXPECT_EQ(cfg.max_sessions, 8u);
    EXPECT_EQ(cfg.max_frame_bytes, 256ull * 1024 * 1024);
    unsetenv("ARK_LISTEN_ADDR");
    unsetenv("ARK_LISTEN_PORT");
    unsetenv("ARK_MAX_SESSIONS");
    unsetenv("ARK_MAX_FRAME_MIB");
}

} // namespace
} // namespace ark
