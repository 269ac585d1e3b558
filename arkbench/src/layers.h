/**
 * @file
 * Outside-in probes of the program's layers, shared by the workloads:
 * direct timings of the rns kernels and the ckks HE ops on operands
 * shaped like a workload's, the kernel-time model built from them,
 * and the benchmark's own correctness references (the cleartext
 * replay of a serving op list and the sequential direct execution).
 */

#pragma once

#include <array>
#include <complex>
#include <vector>

#include "bench.h"
#include "boot/key_cache.h"
#include "boot/plaintext_store.h"
#include "ckks/evaluator.h"
#include "rns/kernel_stats.h"
#include "serve/workload.h"

namespace arkbench {

using Slots = std::vector<std::complex<double>>;

/** Seeded message of @p slots values with |re|, |im| <= @p mag. */
Slots seededMessage(ark::u64 seed, size_t slots, double mag);

/**
 * Per-call times of the rns kernels at the context's top level, and
 * the per-unit rates of the kernel-time model. A unit is a modular
 * multiplication for kernels that record them, otherwise an operand
 * word (KernelCounter::mults / words).
 */
struct RnsProbe
{
    double ntt_fwd_us = 0;
    double ntt_inv_us = 0;
    double bconv_us = 0;
    double ntt_bconv_ntt_us = 0;
    double evk_mac_us = 0;
    double automorphism_us = 0;
    std::array<double, ark::kNumKernelOps> ns_per_unit{};
};

/** Time the kernels through ctx.backend(); @p evk must span the full
 *  key basis (any multiplication or rotation key). */
RnsProbe probeRns(const ark::CkksContext &ctx, const ark::EvalKey &evk,
                  SpanLog &log);

ark::KernelStats statsDelta(const ark::KernelStats &after,
                            const ark::KernelStats &before);

/** Modelled kernel time of @p delta: sum over kernels of units times
 *  the probed rate. The fused NttBconvNtt entry is a marker whose
 *  work is tallied under its NTT and BConv parts, so it is skipped. */
double modelKernelMs(const ark::KernelStats &delta, const RnsProbe &probe);

/** Add the rns.* per-layer metrics for @p requests requests whose
 *  kernel work is @p delta and mean latency @p latency_ms. */
void addRnsMetrics(RunResult &out, const RnsProbe &probe,
                   const ark::KernelStats &delta, ark::u64 requests,
                   double latency_ms);

/** Median times of the public CkksEvaluator ops at the top level. */
struct CkksProbe
{
    double hmult_ms = 0;
    double hrot_ms = 0;
    double pmult_ms = 0;
    double rescale_ms = 0;
};

/** @p top: a top-level ciphertext; @p pt: a plaintext at its level. */
CkksProbe probeCkks(const ark::CkksEvaluator &eval,
                    const ark::Ciphertext &top, const ark::Plaintext &pt,
                    ark::KeyCache &keys, SpanLog &log);

void addCkksMetrics(RunResult &out, const CkksProbe &probe,
                    double he_ops_per_req);

/**
 * Cleartext replay of a serving workload: Square squares each slot,
 * Rotate shifts slots left, MulPlain multiplies by the stored
 * plaintext's message (pt_index modulo the store size), AddScalar
 * adds, and Rescale is the identity on messages.
 */
Slots replayWorkload(const ark::ServeWorkload &w, Slots msg,
                     const std::vector<Slots> &plaintexts);

/** The sequential reference: the same op list run directly on the
 *  evaluator, as BatchServer executes it. */
ark::Ciphertext executeDirect(const ark::CkksEvaluator &eval,
                              const ark::ServeWorkload &w,
                              ark::Ciphertext ct, ark::KeyCache &keys,
                              const ark::PlaintextStore &store);

/**
 * Median wall time of one call of @p fn in ms: calls repeat until
 * @p budget_ms has passed and at least @p min_reps ran.
 */
template <typename F>
double
medianCallMs(F &&fn, double budget_ms, size_t min_reps)
{
    std::vector<double> ms;
    const auto start = Clock::now();
    while (ms.size() < min_reps || msBetween(start, Clock::now()) < budget_ms) {
        const auto t0 = Clock::now();
        fn();
        ms.push_back(msBetween(t0, Clock::now()));
    }
    return median(std::move(ms));
}

} // namespace arkbench
