/**
 * @file
 * Runtime CPU-feature detection for the SIMD kernel engine.
 *
 * The KernelBackend picks its kernel table at startup from CPUID-style
 * probes (AVX-512 IFMA52 -> AVX-512 -> AVX2 -> scalar; every other
 * architecture runs the scalar table), so one binary runs correctly on
 * any host. The tier can be capped — never raised past what the host
 * supports — with ARK_SIMD_TIER, which is how CI keeps the scalar,
 * AVX2 and plain AVX-512 tables exercised on IFMA machines.
 */

#pragma once

#include <string>

namespace ark {

/**
 * ISA tier of the KernelBackend's kernel table. Ordered so that a
 * numerically smaller tier is always a safe substitute for a larger
 * one on the same host (clamping = std::min).
 */
enum class SimdTier {
    Scalar, ///< no vector kernels; scalar lazy loops
    Avx2,   ///< 256-bit kernels, 4 lanes of u64
    Avx512, ///< 512-bit kernels (AVX-512F + DQ), 8 lanes of u64
    /** Avx512's kernels with the 52-bit IFMA multiplier on limbs
     *  with q < 2^50. */
    Avx512Ifma,
};

/** The highest tier; KernelBackend's default cap. */
constexpr SimdTier kMaxSimdTier = SimdTier::Avx512Ifma;

/** Lowercase tier name: "scalar" / "avx2" / "avx512" / "avx512ifma". */
const char *simdTierName(SimdTier tier);

/** Parse a tier name as written by simdTierName; false on junk. */
bool parseSimdTier(const char *name, SimdTier &out);

/** Highest tier the running CPU supports (cached after first probe). */
SimdTier detectSimdTier();

/**
 * ARK_SIMD_TIER env override, else @p fallback; exits with a clear
 * error naming the offending value on junk input. The returned tier is
 * a *cap*: KernelBackend takes the minimum of it, its own cap and
 * detectSimdTier(), so asking for avx512 on a plain-AVX2 host degrades
 * cleanly instead of faulting.
 */
SimdTier simdTierFromEnv(SimdTier fallback);

/** Space-separated detected-feature list ("avx512f avx2 ..."), for
 *  bench provenance so baselines from different hosts never get
 *  compared silently. */
std::string cpuFeatureString();

} // namespace ark
