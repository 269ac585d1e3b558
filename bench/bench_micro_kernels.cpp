/**
 * @file
 * Micro-kernel benchmarks of the functional library's primary kernels.
 *
 * The default mode is SELF-TIMED and dependency-free: it verifies and
 * times the lazy-reduction kernel pass against the strict pre-PR
 * reference kernels (Harvey lazy NTT vs strict NTT, fused cache-blocked
 * BConv vs the two-stage pipeline, pooled vs fresh allocation), the
 * vector kernel table against the scalar lazy kernels at the host's
 * best ISA tier, the avx512 bodies of the IFMA-width kernels (BConv
 * tile, plaintext MAC, limb embedding) against their avx512ifma ones,
 * and prints the serial-vs-pool executor table.
 * `--json PATH` emits the same numbers machine-readably (consumed by
 * scripts/check_bench_regression.py and archived as a CI artifact)
 * together with the dispatched SIMD tier and detected CPU features, so
 * a baseline recorded on one ISA is never compared against a run on
 * another; `--smoke` shrinks sizes/reps for CI.
 * Bit-parity between the lazy and strict kernels — and between the
 * vector and scalar kernels — is always checked and is the binary's
 * own gate; timings are gated by the regression checker.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "boot/bootstrapper.h"
#include "ckks/context.h"
#include "ckks/encryptor.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "rns/bconv.h"
#include "rns/poly_pool.h"
#include "rns/primes.h"
#include "rns/simd_kernels.h"

namespace ark {
namespace {

/** Best-of-reps wall time of fn(), in milliseconds. */
template <typename Fn>
double
timeMs(int reps, Fn &&fn)
{
    using clock = std::chrono::steady_clock;
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        auto t0 = clock::now();
        fn();
        auto t1 = clock::now();
        best = std::min(
            best, std::chrono::duration<double, std::milli>(t1 - t0)
                      .count());
    }
    return best;
}

using Params = std::vector<std::pair<std::string, size_t>>;

std::vector<BenchRow> g_rows;
bool g_parity_ok = true;

/**
 * Record one before/after row for --json: the reference and the
 * optimized timing under their own names, and the speedup between
 * them, which is the metric the committed baseline gates. Returns the
 * speedup for the printed table.
 */
double
addComparison(std::string name, Params params, const char *ref_key,
              double ref_ms, const char *opt_key, double opt_ms)
{
    const double speedup = opt_ms > 0 ? ref_ms / opt_ms : 0;
    g_rows.push_back({std::move(name), std::move(params),
                      {{ref_key, ref_ms, "ms", Better::Lower},
                       {opt_key, opt_ms, "ms", Better::Lower},
                       {"speedup", speedup, "x", Better::Higher}}});
    return speedup;
}

void
checkParity(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "PARITY FAILURE: %s\n", what);
        g_parity_ok = false;
    }
}

// ---------------------------------------------------------------------------
// Lazy vs strict NTT (the tentpole's headline numbers)
// ---------------------------------------------------------------------------

void
runNttComparison(bool smoke)
{
    std::printf("Lazy (Harvey) vs strict NTT, one 60-bit limb\n");
    TablePrinter t({"kernel", "N", "strict (ms)", "lazy (ms)",
                    "speedup"});
    const int reps = smoke ? 5 : 9;
    std::vector<size_t> log_ns =
        smoke ? std::vector<size_t>{12, 16}
              : std::vector<size_t>{12, 14, 16};
    for (size_t log_n : log_ns) {
        const size_t n = size_t(1) << log_n;
        u64 prime = generatePrimes(60, 1, n).front();
        NttTables tables(n, Modulus(prime));
        Rng rng(1);
        auto v = rng.uniformVector(n, prime);

        // Bit-parity first: lazy forward/inverse must round-trip and
        // match the strict kernels word for word.
        {
            auto a = v, b = v;
            tables.forward(a.data());
            tables.forwardStrict(b.data());
            checkParity(a == b, "lazy forward NTT != strict");
            tables.inverse(a.data());
            tables.inverseStrict(b.data());
            checkParity(a == b, "lazy inverse NTT != strict");
            checkParity(a == v, "lazy NTT round-trip != identity");
        }

        // Repeated in-place transforms: any canonical vector is a
        // valid input, so timing loops reuse the buffer.
        const int iters = smoke ? 10 : 40;
        const auto row = [&](const char *name, double strict_ms,
                             double lazy_ms) {
            const double speedup =
                addComparison(name, {{"n", n}, {"limbs", 1}},
                              "strict_ms", strict_ms, "lazy_ms",
                              lazy_ms);
            t.addRow({name, std::to_string(n),
                      TablePrinter::fmt(strict_ms, 3),
                      TablePrinter::fmt(lazy_ms, 3),
                      TablePrinter::fmt(speedup, 2)});
        };
        auto fwd = v;
        const double fwd_strict = timeMs(reps, [&] {
            for (int i = 0; i < iters; ++i)
                tables.forwardStrict(fwd.data());
        }) / iters;
        const double fwd_lazy = timeMs(reps, [&] {
            for (int i = 0; i < iters; ++i)
                tables.forward(fwd.data());
        }) / iters;
        row("ntt_forward", fwd_strict, fwd_lazy);

        auto inv = v;
        const double inv_strict = timeMs(reps, [&] {
            for (int i = 0; i < iters; ++i)
                tables.inverseStrict(inv.data());
        }) / iters;
        const double inv_lazy = timeMs(reps, [&] {
            for (int i = 0; i < iters; ++i)
                tables.inverse(inv.data());
        }) / iters;
        row("ntt_inverse", inv_strict, inv_lazy);
    }
    t.print();
    std::printf("\n");
}

// ---------------------------------------------------------------------------
// Vector kernel table vs the scalar lazy kernels (both serial)
// ---------------------------------------------------------------------------

void
runSimdComparison(bool smoke)
{
    KernelBackend simd;
    KernelBackend scalar(SimdTier::Scalar);
    std::printf("Vector (simd backend, tier %s) vs scalar lazy "
                "kernels, 60-bit limbs (_q42: 42-bit, _q60: below "
                "2^60)\n",
                simdTierName(simd.tier()));
    if (simd.tier() == SimdTier::Scalar)
        std::printf("  (no vector ISA on this host or tier capped; "
                    "rows measure the scalar fallback)\n");
    TablePrinter t({"kernel", "N", "scalar (ms)", "simd (ms)",
                    "speedup"});
    // Best-of-many-small-batches: this is far more robust on noisy
    // shared runners than a few long timing windows, and the headline
    // simd_ntt_forward N=2^16 row is what docs/benchmarks.md records.
    const int reps = smoke ? 5 : 25;
    const int iters = smoke ? 5 : 10;
    const auto add_row = [&](const std::string &name, Params params,
                             double scalar_ms, double simd_ms) {
        // Every row's params lead with n, the table's N column.
        const std::string n = std::to_string(params.front().second);
        const double speedup =
            addComparison(name, std::move(params), "scalar_ms",
                          scalar_ms, "simd_ms", simd_ms);
        t.addRow({name, n, TablePrinter::fmt(scalar_ms, 3),
                  TablePrinter::fmt(simd_ms, 3),
                  TablePrinter::fmt(speedup, 2)});
    };
    // Forward and inverse rows for one N-point transform mod @p prime,
    // named simd_ntt_{forward,inverse}<suffix>.
    const auto ntt_rows = [&](size_t n, u64 prime,
                              const std::string &suffix) {
        NttTables tables(n, Modulus(prime));
        std::vector<const NttTables *> tp{&tables};
        Rng rng(11);
        auto v = rng.uniformVector(n, prime);
        RnsPoly p(n, 1, Rep::Coeff);
        std::copy(v.begin(), v.end(), p.limb(0));

        // Bit-parity gates first: vector forward/inverse must match
        // the scalar transforms word for word and round-trip.
        {
            RnsPoly a = p, b = p;
            simd.nttForward(a, tp);
            scalar.nttForward(b, tp);
            checkParity(std::memcmp(a.limb(0), b.limb(0),
                                    n * sizeof(u64)) == 0,
                        "simd forward NTT != scalar");
            simd.nttInverse(a, tp);
            scalar.nttInverse(b, tp);
            checkParity(std::memcmp(a.limb(0), b.limb(0),
                                    n * sizeof(u64)) == 0,
                        "simd inverse NTT != scalar");
            checkParity(std::memcmp(a.limb(0), p.limb(0),
                                    n * sizeof(u64)) == 0,
                        "simd NTT round-trip != identity");
        }

        // Any canonical vector is valid input, so the timing loops
        // transform the same buffer repeatedly (setRep is a flag).
        RnsPoly w = p;
        const double fwd_scalar = timeMs(reps, [&] {
            for (int i = 0; i < iters; ++i) {
                w.setRep(Rep::Coeff);
                scalar.nttForward(w, tp);
            }
        }) / iters;
        const double fwd_simd = timeMs(reps, [&] {
            for (int i = 0; i < iters; ++i) {
                w.setRep(Rep::Coeff);
                simd.nttForward(w, tp);
            }
        }) / iters;
        add_row("simd_ntt_forward" + suffix, {{"n", n}, {"limbs", 1}},
                fwd_scalar, fwd_simd);

        const double inv_scalar = timeMs(reps, [&] {
            for (int i = 0; i < iters; ++i) {
                w.setRep(Rep::Eval);
                scalar.nttInverse(w, tp);
            }
        }) / iters;
        const double inv_simd = timeMs(reps, [&] {
            for (int i = 0; i < iters; ++i) {
                w.setRep(Rep::Eval);
                simd.nttInverse(w, tp);
            }
        }) / iters;
        add_row("simd_ntt_inverse" + suffix, {{"n", n}, {"limbs", 1}},
                inv_scalar, inv_simd);
    };
    std::vector<size_t> log_ns = smoke
                                     ? std::vector<size_t>{12, 16}
                                     : std::vector<size_t>{12, 14, 16};
    for (size_t log_n : log_ns) {
        const size_t n = size_t(1) << log_n;
        ntt_rows(n, generatePrimes(60, 1, n).front(), "");
    }
    // testBoot's 42-bit scale primes: below 2^50, so the IFMA tier runs
    // its 52-bit butterflies here while the 60-bit rows above cannot.
    ntt_rows(4096, generatePrimes(42, 1, 4096).front(), "_q42");

    // Pointwise product and evk MAC over four 42-bit limbs.
    {
        const size_t n = 4096, limbs = 4;
        std::vector<Modulus> mods;
        for (u64 q : generatePrimes(42, limbs, n))
            mods.emplace_back(q);
        Rng rng(13);
        const auto random_poly = [&] {
            RnsPoly p(n, limbs, Rep::Eval);
            for (size_t l = 0; l < limbs; ++l) {
                auto v = rng.uniformVector(n, mods[l].value());
                std::copy(v.begin(), v.end(), p.limb(l));
            }
            return p;
        };
        const auto same = [&](const RnsPoly &x, const RnsPoly &y) {
            bool eq = true;
            for (size_t l = 0; eq && l < limbs; ++l)
                eq = std::memcmp(x.limb(l), y.limb(l),
                                 n * sizeof(u64)) == 0;
            return eq;
        };
        const RnsPoly a = random_poly(), b = random_poly();
        const RnsPoly c = random_poly();
        RnsPoly rs(n, limbs, Rep::Eval), rv(n, limbs, Rep::Eval);
        scalar.mulEval(a, b, mods, rs);
        simd.mulEval(a, b, mods, rv);
        checkParity(same(rs, rv), "simd mulEval != scalar");
        const double mul_scalar = timeMs(reps, [&] {
            for (int i = 0; i < iters; ++i)
                scalar.mulEval(a, b, mods, rs);
        }) / iters;
        const double mul_simd = timeMs(reps, [&] {
            for (int i = 0; i < iters; ++i)
                simd.mulEval(a, b, mods, rv);
        }) / iters;
        add_row("simd_mul_eval_q42", {{"n", n}, {"limbs", limbs}},
                mul_scalar, mul_simd);

        // Accumulators stay canonical however often the MAC runs.
        RnsPoly bs = c, as = c, bv = c, av = c;
        scalar.evkMulAcc(a, b, c, limbs, limbs, mods, bs, as);
        simd.evkMulAcc(a, b, c, limbs, limbs, mods, bv, av);
        checkParity(same(bs, bv) && same(as, av),
                    "simd evkMulAcc != scalar");
        const double mac_scalar = timeMs(reps, [&] {
            for (int i = 0; i < iters; ++i)
                scalar.evkMulAcc(a, b, c, limbs, limbs, mods, bs, as);
        }) / iters;
        const double mac_simd = timeMs(reps, [&] {
            for (int i = 0; i < iters; ++i)
                simd.evkMulAcc(a, b, c, limbs, limbs, mods, bv, av);
        }) / iters;
        add_row("simd_evk_mac_q42", {{"n", n}, {"limbs", limbs}},
                mac_scalar, mac_simd);
    }

    // The element-wise entries over four limbs: 42-bit limbs take the
    // IFMA bodies where the tier has them, limbs just below 2^60 the
    // AVX-512 ones. mulByI runs the constant product on half limbs.
    for (const int width : {42, 60}) {
        const size_t n = 4096, limbs = 4;
        const std::string suffix = "_q" + std::to_string(width);
        std::vector<Modulus> mods;
        std::vector<NttTables> tables;
        std::vector<u64> scalars;
        Rng rng(14);
        for (u64 q : generatePrimesBelow(width, limbs, n)) {
            mods.emplace_back(q);
            tables.emplace_back(n, Modulus(q));
            scalars.push_back(rng.uniformVector(1, q)[0]);
        }
        const auto random_poly = [&] {
            RnsPoly p(n, limbs, Rep::Eval);
            for (size_t l = 0; l < limbs; ++l) {
                auto v = rng.uniformVector(n, mods[l].value());
                std::copy(v.begin(), v.end(), p.limb(l));
            }
            return p;
        };
        const RnsPoly a = random_poly(), b = random_poly();
        // One parity-gated row per kernel; the MAC's accumulator stays
        // canonical however often it runs.
        const auto kernel_row = [&](const char *name, const auto &op) {
            RnsPoly rs = random_poly(), rv = rs;
            op(scalar, rs);
            op(simd, rv);
            bool same = true;
            for (size_t l = 0; same && l < limbs; ++l)
                same = std::memcmp(rs.limb(l), rv.limb(l),
                                   n * sizeof(u64)) == 0;
            checkParity(same, (std::string("simd ") + name +
                               " != scalar")
                                  .c_str());
            const double scalar_ms = timeMs(reps, [&] {
                for (int i = 0; i < iters; ++i)
                    op(scalar, rs);
            }) / iters;
            const double simd_ms = timeMs(reps, [&] {
                for (int i = 0; i < iters; ++i)
                    op(simd, rv);
            }) / iters;
            add_row(std::string("simd_") + name + suffix,
                    {{"n", n}, {"limbs", limbs}}, scalar_ms, simd_ms);
        };
        kernel_row("add", [&](KernelBackend &kb, RnsPoly &r) {
            kb.add(a, b, mods, r);
        });
        kernel_row("sub", [&](KernelBackend &kb, RnsPoly &r) {
            kb.sub(a, b, mods, r);
        });
        kernel_row("mul_acc_eval", [&](KernelBackend &kb, RnsPoly &r) {
            kb.mulAccEval(a, b, mods, r);
        });
        kernel_row("mul_scalar", [&](KernelBackend &kb, RnsPoly &r) {
            kb.mulScalar(a, scalars, mods, r);
        });
        kernel_row("sub_mul_scalar", [&](KernelBackend &kb, RnsPoly &r) {
            kb.subMulScalar(a, b, scalars, mods, r);
        });
        kernel_row("mul_by_i", [&](KernelBackend &kb, RnsPoly &r) {
            kb.mulByI(a, tables, r);
        });
    }

    // The fused BConv tile with the vector MAC inner loop.
    {
        const size_t n = size_t(1) << (smoke ? 13 : 16);
        const size_t nb = 12, nc = 8;
        auto pb = generatePrimes(45, nb, n);
        auto pc = generatePrimes(50, nc, n, pb);
        std::vector<Modulus> mb, mc;
        for (u64 q : pb)
            mb.emplace_back(q);
        for (u64 q : pc)
            mc.emplace_back(q);
        BaseConverter bc(mb, mc);
        Rng rng(12);
        RnsPoly in(n, nb, Rep::Coeff);
        for (size_t l = 0; l < nb; ++l) {
            auto v = rng.uniformVector(n, pb[l]);
            std::copy(v.begin(), v.end(), in.limb(l));
        }
        {
            RnsPoly a = simd.bconv(bc, in);
            RnsPoly b = scalar.bconv(bc, in);
            bool same = a.numLimbs() == b.numLimbs();
            for (size_t l = 0; same && l < a.numLimbs(); ++l)
                same = std::memcmp(a.limb(l), b.limb(l),
                                   n * sizeof(u64)) == 0;
            checkParity(same, "simd BConv != scalar BConv");
        }
        const double scalar_ms = timeMs(reps, [&] {
            RnsPoly out = scalar.bconv(bc, in);
            scalar.pool().release(std::move(out));
        });
        const double simd_ms = timeMs(reps, [&] {
            RnsPoly out = simd.bconv(bc, in);
            simd.pool().release(std::move(out));
        });
        add_row("simd_bconv",
                {{"n", n}, {"in_limbs", nb}, {"out_limbs", nc}},
                scalar_ms, simd_ms);
    }
    t.print();
    std::printf("\n");
}

// ---------------------------------------------------------------------------
// The IFMA bodies per tier at testBoot's shapes
// ---------------------------------------------------------------------------

/**
 * Median per-call wall time of fn(), in milliseconds, over rounds of
 * @p calls calls run until @p min_ms of wall time has passed (at least
 * three rounds): rows of 5-50 us kernels timed as a few single calls
 * move 10-30% between runs on a shared host.
 */
template <typename Fn>
double
timeForMs(double min_ms, int calls, Fn &&fn)
{
    using clock = std::chrono::steady_clock;
    std::vector<double> rounds;
    const auto start = clock::now();
    while (rounds.size() < 3 ||
           std::chrono::duration<double, std::milli>(clock::now() - start)
                   .count() < min_ms) {
        const auto t0 = clock::now();
        for (int i = 0; i < calls; ++i)
            fn();
        rounds.push_back(
            std::chrono::duration<double, std::milli>(clock::now() - t0)
                .count() /
            calls);
    }
    std::nth_element(rounds.begin(), rounds.begin() + rounds.size() / 2,
                     rounds.end());
    return rounds[rounds.size() / 2];
}

/**
 * The avx512 (Shoup64) and avx512ifma (Ifma52) bodies of the
 * IFMA-width kernels at testBoot's shapes, N = 4096:
 *  - the BConv tile on both key-switch conversions, 7 -> 21 limbs:
 *    ModUp of digit 0 (q0 and six 42-bit primes into the other
 *    fourteen q primes and the seven special primes below 2^50) and
 *    ModDown (the special primes into q0..q20);
 *  - the plaintext MAC entry on a CtS giant step, 16 terms on each of
 *    q0..q20 (q0 runs Shoup64 on both tiers), one limb's 48 rows at a
 *    time so they stay cache-resident, as the generated OF-Limb rows
 *    are;
 *  - the limb embedding of one centered q0 limb into q0..q20.
 * A tier's body stays only if it beats the tier below by 1.2x;
 * `speedup` is that ratio. Both tiers' outputs must match the scalar
 * table's. Each time is timeForMs's median.
 */
void
runIfmaTierComparison(bool smoke)
{
    KernelBackend scalar(SimdTier::Scalar);
    KernelBackend avx512(SimdTier::Avx512);
    KernelBackend ifma(SimdTier::Avx512Ifma);
    std::printf("IFMA-width kernels per tier at testBoot's shapes\n");
    if (avx512.tier() != SimdTier::Avx512 ||
        ifma.tier() != SimdTier::Avx512Ifma) {
        std::printf("  (skipped: needs avx512ifma, tier is %s)\n\n",
                    simdTierName(ifma.tier()));
        return;
    }
    const CkksParams params = CkksParams::testBoot();
    const PrimeChains chains = primeChains(params);
    const size_t n = params.degree;
    const size_t a = static_cast<size_t>(params.alpha());
    std::vector<Modulus> digit0, modup_out, special, q_all;
    for (size_t i = 0; i < chains.q.size(); ++i) {
        q_all.emplace_back(chains.q[i]);
        (i < a ? digit0 : modup_out).emplace_back(chains.q[i]);
    }
    for (u64 p : chains.p) {
        special.emplace_back(p);
        modup_out.emplace_back(p);
    }
    TablePrinter t({"kernel", "N", "scalar (ms)", "avx512 (ms)",
                    "avx512ifma (ms)", "ifma vs avx512"});
    const double min_ms = smoke ? 20 : 300;
    const auto add_row = [&](const char *name, Params row_params,
                             double scalar_ms, double avx512_ms,
                             double ifma_ms) {
        const double speedup =
            addComparison(name, std::move(row_params), "avx512_ms",
                          avx512_ms, "avx512ifma_ms", ifma_ms);
        t.addRow({name, std::to_string(n), TablePrinter::fmt(scalar_ms, 3),
                  TablePrinter::fmt(avx512_ms, 3),
                  TablePrinter::fmt(ifma_ms, 3),
                  TablePrinter::fmt(speedup, 2)});
    };
    const auto same = [&](const RnsPoly &x, const RnsPoly &y) {
        for (size_t l = 0; l < x.numLimbs(); ++l)
            if (std::memcmp(x.limb(l), y.limb(l), n * sizeof(u64)) != 0)
                return false;
        return true;
    };
    Rng rng(15);

    const auto bconv_row = [&](const char *name, const BaseConverter &bc) {
        const size_t nb = bc.inBase().size(), nc = bc.outBase().size();
        RnsPoly in(n, nb, Rep::Coeff);
        for (size_t l = 0; l < nb; ++l) {
            auto v = rng.uniformVector(n, bc.inBase()[l].value());
            std::copy(v.begin(), v.end(), in.limb(l));
        }
        const RnsPoly ref = scalar.bconv(bc, in);
        const auto time_ms = [&](KernelBackend &kb) {
            RnsPoly got = kb.bconv(bc, in);
            checkParity(same(got, ref), (std::string(kb.name()) + " " +
                                         name + " != scalar")
                                            .c_str());
            kb.pool().release(std::move(got));
            return timeForMs(min_ms, 10, [&] {
                kb.pool().release(kb.bconv(bc, in));
            });
        };
        const double scalar_ms = time_ms(scalar);
        const double avx512_ms = time_ms(avx512);
        add_row(name, {{"n", n}, {"in_limbs", nb}, {"out_limbs", nc}},
                scalar_ms, avx512_ms, time_ms(ifma));
    };
    bconv_row("simd_bconv_modup", BaseConverter(digit0, modup_out));
    bconv_row("simd_bconv_moddown", BaseConverter(special, q_all));

    // The plaintext MAC: per limb, 16 terms of random residues, timed
    // on each table and summed over the limbs.
    const size_t terms = 16, limbs = q_all.size();
    double mac_ms[3] = {0, 0, 0};
    for (const Modulus &q : q_all) {
        std::vector<std::vector<u64>> rows;
        std::vector<const u64 *> pt, b, av;
        for (size_t r = 0; r < 3 * terms; ++r)
            rows.push_back(rng.uniformVector(n, q.value()));
        for (size_t k = 0; k < terms; ++k) {
            pt.push_back(rows[3 * k].data());
            b.push_back(rows[3 * k + 1].data());
            av.push_back(rows[3 * k + 2].data());
        }
        std::vector<u64> ref_b(n), ref_a(n);
        const KernelBackend *tiers[3] = {&scalar, &avx512, &ifma};
        for (size_t tier = 0; tier < 3; ++tier) {
            const SimdKernels &kt = simdKernels(tiers[tier]->tier());
            std::vector<u64> out_b(n), out_a(n);
            kt.plain_mul_sum_limb(q, pt.data(), b.data(), av.data(), terms,
                                  out_b.data(), out_a.data(), n);
            if (tier == 0) {
                ref_b = out_b;
                ref_a = out_a;
            }
            checkParity(out_b == ref_b && out_a == ref_a,
                        (std::string(simdTierName(kt.tier)) +
                         " simd_plain_mul_sum != scalar")
                            .c_str());
            mac_ms[tier] += timeForMs(min_ms / limbs, 20, [&] {
                kt.plain_mul_sum_limb(q, pt.data(), b.data(), av.data(),
                                      terms, out_b.data(), out_a.data(), n);
            });
        }
    }
    add_row("simd_plain_mul_sum",
            {{"n", n}, {"terms", terms}, {"limbs", limbs}}, mac_ms[0],
            mac_ms[1], mac_ms[2]);

    // The limb embedding: one centered q0 limb into every q limb.
    const std::vector<u64> src = rng.uniformVector(n, q_all[0].value());
    RnsPoly ref(n, limbs, Rep::Coeff);
    scalar.limbEmbed(src, q_all[0], q_all, ref);
    const auto embed_ms = [&](KernelBackend &kb) {
        RnsPoly got(n, limbs, Rep::Coeff);
        kb.limbEmbed(src, q_all[0], q_all, got);
        checkParity(same(got, ref), (std::string(kb.name()) +
                                     " simd_limb_embed != scalar")
                                        .c_str());
        return timeForMs(min_ms, 20,
                         [&] { kb.limbEmbed(src, q_all[0], q_all, got); });
    };
    const double embed_scalar = embed_ms(scalar);
    const double embed_avx512 = embed_ms(avx512);
    add_row("simd_limb_embed", {{"n", n}, {"limbs", limbs}}, embed_scalar,
            embed_avx512, embed_ms(ifma));
    t.print();
    std::printf("\n");
}

// ---------------------------------------------------------------------------
// Fused cache-blocked BConv vs the two-stage pipeline
// ---------------------------------------------------------------------------

void
runBconvComparison(bool smoke)
{
    // Baseline = the pre-PR hot path: materialized scale stage, then
    // the limb-strided MAC, each into a freshly allocated
    // (zero-filled) poly, as that pipeline allocated.
    // Optimized = the production call path: the scalar backend's
    // fused cache-blocked tile kernel with its pool in steady state
    // (results released back each op, as the evaluator does).
    std::printf("Fused+pooled BConv (backend path) vs two-stage "
                "fresh-alloc reference\n");
    TablePrinter t({"kernel", "N", "|B|->|C|", "two-stage (ms)",
                    "fused (ms)", "speedup"});
    auto kb = makeKernelBackend(BackendKind::Scalar);
    const int reps = smoke ? 5 : 7;
    struct Cfg
    {
        size_t log_n, nb, nc;
    };
    std::vector<Cfg> cfgs = smoke
                                ? std::vector<Cfg>{{13, 12, 8},
                                                   {16, 12, 8}}
                                : std::vector<Cfg>{{13, 12, 8},
                                                   {14, 12, 8},
                                                   {16, 6, 7},
                                                   {16, 12, 8}};
    for (const Cfg &cfg : cfgs) {
        const size_t n = size_t(1) << cfg.log_n;
        auto pb = generatePrimes(45, cfg.nb, n);
        auto pc = generatePrimes(50, cfg.nc, n, pb);
        std::vector<Modulus> mb, mc;
        for (u64 p : pb)
            mb.emplace_back(p);
        for (u64 p : pc)
            mc.emplace_back(p);
        BaseConverter bc(mb, mc);

        Rng rng(3);
        RnsPoly in(n, cfg.nb, Rep::Coeff);
        for (size_t l = 0; l < cfg.nb; ++l) {
            auto v = rng.uniformVector(n, pb[l]);
            std::copy(v.begin(), v.end(), in.limb(l));
        }

        // Parity: the backend's fused tile path == the materialized
        // two-stage pipeline.
        {
            RnsPoly fused_kb = kb->bconv(bc, in);
            RnsPoly two = bc.matmulStage(bc.scaleStage(in));
            bool same = fused_kb.numLimbs() == two.numLimbs();
            for (size_t l = 0; same && l < two.numLimbs(); ++l)
                same = std::memcmp(fused_kb.limb(l), two.limb(l),
                                   n * sizeof(u64)) == 0;
            checkParity(same, "backend BConv != two-stage BConv");
        }

        const double two_stage_ms = timeMs(reps, [&] {
            RnsPoly out = bc.matmulStage(bc.scaleStage(in));
            (void)out;
        });
        const double fused_ms = timeMs(reps, [&] {
            RnsPoly out = kb->bconv(bc, in);
            kb->pool().release(std::move(out));
        });
        const double speedup = addComparison(
            "bconv",
            {{"n", n}, {"in_limbs", cfg.nb}, {"out_limbs", cfg.nc}},
            "two_stage_ms", two_stage_ms, "fused_ms", fused_ms);
        t.addRow({"bconv", std::to_string(n),
                  std::to_string(cfg.nb) + "->" + std::to_string(cfg.nc),
                  TablePrinter::fmt(two_stage_ms, 3),
                  TablePrinter::fmt(fused_ms, 3),
                  TablePrinter::fmt(speedup, 2)});
    }
    t.print();
    std::printf("\n");
}

// ---------------------------------------------------------------------------
// Pooled vs fresh hot-path allocation
// ---------------------------------------------------------------------------

void
runPoolComparison(bool smoke)
{
    std::printf("Pooled vs fresh RnsPoly allocation (acquire/release "
                "cycle)\n");
    TablePrinter t({"shape", "fresh (us)", "pooled (us)", "speedup"});
    const int reps = smoke ? 3 : 7;
    const int iters = smoke ? 50 : 200;
    struct Cfg
    {
        size_t log_n, limbs;
    };
    for (const Cfg &cfg : {Cfg{14, 8}, Cfg{16, 8}}) {
        const size_t n = size_t(1) << cfg.log_n;
        PolyPool pool;
        // Warm the free list so the timed loop measures the recycle
        // path, as a steady-state server would see it.
        pool.release(pool.acquire(n, cfg.limbs, Rep::Eval));

        volatile u64 sink = 0;
        const double fresh_ms = timeMs(reps, [&] {
            for (int i = 0; i < iters; ++i) {
                RnsPoly p(n, cfg.limbs, Rep::Eval);
                sink += p.limb(0)[0];
            }
        }) / iters;
        const double pooled_ms = timeMs(reps, [&] {
            for (int i = 0; i < iters; ++i) {
                RnsPoly p = pool.acquire(n, cfg.limbs, Rep::Eval);
                sink += p.limb(0)[0];
                pool.release(std::move(p));
            }
        }) / iters;
        const double speedup = addComparison(
            "poly_alloc", {{"n", n}, {"limbs", cfg.limbs}}, "fresh_ms",
            fresh_ms, "pooled_ms", pooled_ms);
        t.addRow({std::to_string(n) + " x " + std::to_string(cfg.limbs),
                  TablePrinter::fmt(fresh_ms * 1000, 2),
                  TablePrinter::fmt(pooled_ms * 1000, 2),
                  TablePrinter::fmt(speedup, 2)});
    }
    t.print();
    std::printf("\n");
}

// ---------------------------------------------------------------------------
// Serial vs pool executor at the same kernel table (full mode only)
// ---------------------------------------------------------------------------

/** One engine's warm testBoot bootstrap: its median time and output. */
struct BootRun
{
    std::string engine;
    double median_ms = 0;
    Ciphertext out;
};

/**
 * Bootstrap one fixed level-0 testBoot ciphertext on a context whose
 * engine is @p kind: one untimed warm-up (it generates the evks the
 * key cache serves and fills the buffer pool), then the median of
 * @p reps timed runs. The same seeds on every engine, so the outputs
 * must agree bit for bit.
 */
BootRun
runBootstrap(BackendKind kind, size_t threads, int reps)
{
    CkksParams params = CkksParams::testBoot();
    params.backend = kind;
    params.backend_threads = threads;
    CkksContext ctx(params);
    Rng rng(7);
    CkksEncoder encoder(ctx);
    KeyGenerator keygen(ctx, rng);
    const SecretKey sk = keygen.secretKey();
    CkksEncryptor encryptor(ctx, rng);
    CkksEvaluator eval(ctx);
    KeyCache keys(keygen, sk, ctx.degree());
    const BootConfig cfg;
    Bootstrapper boot(ctx, encoder, cfg);

    std::vector<Complex> m(params.num_slots);
    Rng mrng(99);
    for (auto &v : m)
        v = Complex(mrng.uniformReal() - 0.5, mrng.uniformReal() - 0.5);
    const double delta0 =
        static_cast<double>(ctx.qModuli()[0].value()) / cfg.msg_ratio;
    Ciphertext ct =
        encryptor.encryptSymmetric(encoder.encode(m, 0, delta0), sk);
    ct.slots = params.num_slots;

    BootRun run;
    run.engine = ctx.backend().name();
    run.out = boot.bootstrap(eval, ct, keys);
    std::vector<double> ms;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        run.out = boot.bootstrap(eval, ct, keys);
        ms.push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
    }
    std::sort(ms.begin(), ms.end());
    run.median_ms = ms[ms.size() / 2];
    return run;
}

bool
samePoly(const RnsPoly &x, const RnsPoly &y)
{
    return x.sameShape(y) && x.rep() == y.rep() &&
           std::memcmp(x.limb(0), y.limb(0), x.byteSize()) == 0;
}

void
printBackendComparison()
{
    const size_t threads =
        backendThreadsFromEnv(ThreadPool::defaultThreads());
    // Both engines pick the same (capped) table, so the speedup column
    // isolates the executor.
    KernelBackend serial;
    KernelBackend pool(kMaxSimdTier, threads);

    std::printf("Executor comparison (table %s; pool: %zu threads)\n",
                simdTierName(serial.tier()), pool.threads());
    TablePrinter t({"Kernel", "N", "limbs", "serial (ms)", "pool (ms)",
                    "speedup"});

    const int reps = 5;
    for (size_t log_n : {12u, 14u}) {
        const size_t n = size_t(1) << log_n;
        const size_t limbs = 8;
        auto qs = generatePrimes(50, limbs, n);
        std::vector<Modulus> moduli;
        std::vector<NttTables> tables;
        std::vector<const NttTables *> table_ptrs;
        for (u64 q : qs) {
            moduli.emplace_back(q);
            tables.emplace_back(n, Modulus(q));
        }
        for (auto &tb : tables)
            table_ptrs.push_back(&tb);

        Rng rng(7);
        RnsPoly poly(n, limbs, Rep::Eval);
        for (size_t l = 0; l < limbs; ++l) {
            auto v = rng.uniformVector(n, qs[l]);
            std::copy(v.begin(), v.end(), poly.limb(l));
        }

        auto out_qs = generatePrimes(51, limbs, n);
        std::vector<Modulus> out_base;
        std::vector<NttTables> out_tables;
        std::vector<const NttTables *> out_ptrs;
        for (u64 q : out_qs) {
            out_base.emplace_back(q);
            out_tables.emplace_back(n, Modulus(q));
        }
        for (auto &tb : out_tables)
            out_ptrs.push_back(&tb);
        BaseConverter bc(moduli, out_base);
        Automorphism am(galoisElt(5, n), n);

        // Any canonical vector is valid input, so the in-place kernels
        // transform one buffer rep after rep (setRep is a flag) and
        // no copy lands inside the timed region.
        RnsPoly work = poly;
        auto row = [&](const char *name, auto &&kernel) {
            double ms_s = timeMs(reps, [&] { kernel(serial); });
            double ms_p = timeMs(reps, [&] { kernel(pool); });
            t.addRow({name, std::to_string(n), std::to_string(limbs),
                      TablePrinter::fmt(ms_s, 3),
                      TablePrinter::fmt(ms_p, 3),
                      TablePrinter::fmt(ms_s / ms_p, 2)});
        };

        row("ntt_forward", [&](KernelBackend &kb) {
            work.setRep(Rep::Coeff);
            kb.nttForward(work, table_ptrs);
        });
        row("ntt_inverse", [&](KernelBackend &kb) {
            work.setRep(Rep::Eval);
            kb.nttInverse(work, table_ptrs);
        });
        row("bconv", [&](KernelBackend &kb) {
            work.setRep(Rep::Coeff);
            auto out = kb.bconv(bc, work);
            (void)out;
        });
        row("automorphism", [&](KernelBackend &kb) {
            auto out = kb.automorphism(am, poly, moduli);
            (void)out;
        });
        row("mul_eval", [&](KernelBackend &kb) {
            RnsPoly r(n, limbs, Rep::Eval);
            kb.mulEval(poly, poly, moduli, r);
        });
        row("ntt_bconv_ntt", [&](KernelBackend &kb) {
            auto out = kb.nttBconvNtt(poly, table_ptrs, bc, out_ptrs);
            (void)out;
        });
    }

    // The workload the pool exists for: a whole bootstrap, whose
    // kernels the executor splits limb by limb.
    const int boot_reps = 3;
    const BootRun boot_s = runBootstrap(BackendKind::Simd, 0, boot_reps);
    const BootRun boot_p =
        runBootstrap(BackendKind::Parallel, threads, boot_reps);
    checkParity(samePoly(boot_s.out.b, boot_p.out.b) &&
                    samePoly(boot_s.out.a, boot_p.out.a),
                "pooled bootstrap differs from the serial one");
    const CkksParams boot_params = CkksParams::testBoot();
    const size_t boot_n = boot_params.degree;
    const size_t boot_limbs = static_cast<size_t>(boot_params.max_level) + 1;
    const double boot_speedup = addComparison(
        "executor_bootstrap",
        {{"n", boot_n}, {"limbs", boot_limbs}, {"threads", threads}},
        "serial_ms", boot_s.median_ms, "pool_ms", boot_p.median_ms);
    t.addRow({"bootstrap", std::to_string(boot_n),
              std::to_string(boot_limbs),
              TablePrinter::fmt(boot_s.median_ms, 1),
              TablePrinter::fmt(boot_p.median_ms, 1),
              TablePrinter::fmt(boot_speedup, 2)});
    t.print();
    std::printf("bootstrap: warm testBoot bootstrap, median of %d runs "
                "after one warm-up (%s vs %s)\n\n",
                boot_reps, boot_s.engine.c_str(), boot_p.engine.c_str());
}

const char *kUsage =
    "bench_micro_kernels — self-timed kernel before/after tables\n"
    "\n"
    "Usage: bench_micro_kernels [--smoke] [--json PATH] [--help]\n"
    "  (no flags)  lazy-vs-strict NTT, simd-vs-scalar kernels (best\n"
    "            host ISA), the IFMA-width kernels (BConv tile,\n"
    "            plaintext MAC, limb embedding) at avx512 vs\n"
    "            avx512ifma,\n"
    "            fused-vs-two-stage BConv, pooled-vs-fresh\n"
    "            alloc, serial-vs-pool executor table (kernels and\n"
    "            a warm testBoot bootstrap)\n"
    "  --smoke   reduced sizes/reps for CI; parity checks still gate\n"
    "            (nonzero exit on mismatch)\n"
    "  --json PATH  also write the rows as JSON for\n"
    "            scripts/check_bench_regression.py (committed\n"
    "            baseline: bench/baselines/bench_micro_kernels.json).\n"
    "  --help    this text.\n";

} // namespace
} // namespace ark

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string json_path;
    int exit_code = 0;
    if (!ark::parseBenchArgs(argc, argv, "bench_micro_kernels",
                             ark::kUsage, smoke, json_path, nullptr,
                             exit_code))
        return exit_code;

    ark::runNttComparison(smoke);
    ark::runSimdComparison(smoke);
    ark::runIfmaTierComparison(smoke);
    ark::runBconvComparison(smoke);
    ark::runPoolComparison(smoke);
    if (!smoke)
        ark::printBackendComparison();

    if (!json_path.empty() &&
        !ark::writeBenchJson(json_path, "bench_micro_kernels", smoke,
                             ark::g_parity_ok, ark::g_rows))
        return 1;

    if (!ark::g_parity_ok) {
        std::fprintf(stderr,
                     "FAIL: lazy kernels diverged from the strict "
                     "reference\n");
        return 1;
    }
    std::printf("parity: lazy kernels bit-identical to strict "
                "reference\n");
    return 0;
}
