#include "rns/cpu_features.h"

#include <cstring>

#include "common/env.h"

namespace ark {

const char *
simdTierName(SimdTier tier)
{
    switch (tier) {
      case SimdTier::Scalar:
        return "scalar";
      case SimdTier::Avx2:
        return "avx2";
      case SimdTier::Avx512:
        return "avx512";
      case SimdTier::Avx512Ifma:
        return "avx512ifma";
    }
    return "scalar";
}

bool
parseSimdTier(const char *name, SimdTier &out)
{
    if (name == nullptr)
        return false;
    for (int i = 0; i <= static_cast<int>(kMaxSimdTier); ++i) {
        const auto tier = static_cast<SimdTier>(i);
        if (std::strcmp(name, simdTierName(tier)) == 0) {
            out = tier;
            return true;
        }
    }
    return false;
}

namespace {

SimdTier
probeSimdTier()
{
#if (defined(__x86_64__) || defined(__i386__)) &&                        \
    (defined(__GNUC__) || defined(__clang__))
    // The AVX-512 kernels use vpmullq, so the tier needs DQ on top of
    // F. Every AVX-512 server part since Skylake-SP ships both; the
    // F-only Xeon Phi line drops to the AVX2 kernels. IFMA52
    // (vpmadd52lo/hi, Cannon Lake / Ice Lake onward) adds the 52-bit
    // NTT, evk-MAC and mulEval bodies on top of that.
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq"))
        return __builtin_cpu_supports("avx512ifma") ? SimdTier::Avx512Ifma
                                                    : SimdTier::Avx512;
    if (__builtin_cpu_supports("avx2"))
        return SimdTier::Avx2;
    return SimdTier::Scalar;
#else
    return SimdTier::Scalar;
#endif
}

} // namespace

SimdTier
detectSimdTier()
{
    static const SimdTier tier = probeSimdTier();
    return tier;
}

SimdTier
simdTierFromEnv(SimdTier fallback)
{
    SimdTier tier = fallback;
    const char *env = envValue("ARK_SIMD_TIER");
    if (env != nullptr && !parseSimdTier(env, tier)) {
        std::string expected;
        for (int i = 0; i <= static_cast<int>(kMaxSimdTier); ++i) {
            expected += i == 0 ? "'" : ", '";
            expected += simdTierName(static_cast<SimdTier>(i));
            expected += "'";
        }
        fatalEnv("ARK_SIMD_TIER", env, expected.c_str());
    }
    return tier;
}

std::string
cpuFeatureString()
{
    std::string out;
#if (defined(__x86_64__) || defined(__i386__)) &&                        \
    (defined(__GNUC__) || defined(__clang__))
    struct Probe
    {
        const char *name;
        bool present;
    };
    const Probe probes[] = {
        {"sse4.2", static_cast<bool>(__builtin_cpu_supports("sse4.2"))},
        {"avx", static_cast<bool>(__builtin_cpu_supports("avx"))},
        {"avx2", static_cast<bool>(__builtin_cpu_supports("avx2"))},
        {"avx512f", static_cast<bool>(__builtin_cpu_supports("avx512f"))},
        {"avx512dq",
         static_cast<bool>(__builtin_cpu_supports("avx512dq"))},
        {"avx512vl",
         static_cast<bool>(__builtin_cpu_supports("avx512vl"))},
        {"avx512ifma",
         static_cast<bool>(__builtin_cpu_supports("avx512ifma"))},
    };
    for (const Probe &p : probes) {
        if (!p.present)
            continue;
        if (!out.empty())
            out += ' ';
        out += p.name;
    }
#elif defined(__aarch64__)
    out = "neon";
#endif
    if (out.empty())
        out = "none";
    return out;
}

} // namespace ark
