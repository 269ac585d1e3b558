/**
 * @file
 * Micro-kernel benchmarks of the functional library's primary kernels.
 *
 * The default mode is SELF-TIMED and dependency-free: it verifies and
 * times the lazy-reduction kernel pass against the strict pre-PR
 * reference kernels (Harvey lazy NTT vs strict NTT, fused cache-blocked
 * BConv vs the two-stage pipeline, pooled vs fresh allocation), the
 * vector kernel table against the scalar lazy kernels at the host's
 * best ISA tier, and prints the serial-vs-pool executor table.
 * `--json PATH` emits the same numbers machine-readably (consumed by
 * scripts/check_bench_regression.py and archived as a CI artifact)
 * together with the dispatched SIMD tier and detected CPU features, so
 * a baseline recorded on one ISA is never compared against a run on
 * another; `--smoke` shrinks sizes/reps for CI.
 * Bit-parity between the lazy and strict kernels — and between the
 * vector and scalar kernels — is always checked and is the only hard
 * gate; timing thresholds stay warn-only because shared CI runners
 * are noisy.
 *
 * When google-benchmark is available the classic BM_* suite is still
 * compiled in and runs with `--gbench [benchmark args...]`.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keygen.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "rns/backend.h"
#include "rns/bconv.h"
#include "rns/cpu_features.h"
#include "rns/four_step_ntt.h"
#include "rns/poly_pool.h"
#include "rns/primes.h"

#ifdef ARK_HAVE_GBENCH
#include <benchmark/benchmark.h>
#endif

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

/** One before/after comparison row, also emitted to --json. */
struct Result
{
    std::string name; ///< kernel identifier (stable across runs)
    size_t n = 0;
    size_t limbs = 0;
    double baseline_ms = 0; ///< strict / unfused / fresh-alloc path
    double optimized_ms = 0;
    double speedup() const
    {
        return optimized_ms > 0 ? baseline_ms / optimized_ms : 0;
    }
};

std::vector<Result> g_results;
bool g_parity_ok = true;
/// Tier the simd engine actually dispatched ("scalar" on plain hosts);
/// recorded in the JSON so baselines from different ISAs never mix.
std::string g_simd_tier = "scalar";

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
        auto fwd = v;
        Result rf{"ntt_forward", n, 1, 0, 0};
        rf.baseline_ms = timeMs(reps, [&] {
                             for (int i = 0; i < iters; ++i)
                                 tables.forwardStrict(fwd.data());
                         }) /
                         iters;
        rf.optimized_ms = timeMs(reps, [&] {
                              for (int i = 0; i < iters; ++i)
                                  tables.forward(fwd.data());
                          }) /
                          iters;
        g_results.push_back(rf);
        t.addRow({"ntt_forward", std::to_string(n),
                  TablePrinter::fmt(rf.baseline_ms, 3),
                  TablePrinter::fmt(rf.optimized_ms, 3),
                  TablePrinter::fmt(rf.speedup(), 2)});

        auto inv = v;
        Result ri{"ntt_inverse", n, 1, 0, 0};
        ri.baseline_ms = timeMs(reps, [&] {
                             for (int i = 0; i < iters; ++i)
                                 tables.inverseStrict(inv.data());
                         }) /
                         iters;
        ri.optimized_ms = timeMs(reps, [&] {
                              for (int i = 0; i < iters; ++i)
                                  tables.inverse(inv.data());
                          }) /
                          iters;
        g_results.push_back(ri);
        t.addRow({"ntt_inverse", std::to_string(n),
                  TablePrinter::fmt(ri.baseline_ms, 3),
                  TablePrinter::fmt(ri.optimized_ms, 3),
                  TablePrinter::fmt(ri.speedup(), 2)});
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
    g_simd_tier = simdTierName(simd.tier());
    std::printf("Vector (simd backend, tier %s) vs scalar lazy "
                "kernels, 60-bit limbs (_q42: 42-bit, _q60: below "
                "2^60)\n",
                g_simd_tier.c_str());
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
    const auto add_row = [&](const Result &r) {
        g_results.push_back(r);
        t.addRow({r.name, std::to_string(r.n),
                  TablePrinter::fmt(r.baseline_ms, 3),
                  TablePrinter::fmt(r.optimized_ms, 3),
                  TablePrinter::fmt(r.speedup(), 2)});
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
        Result rf{"simd_ntt_forward" + suffix, n, 1, 0, 0};
        rf.baseline_ms = timeMs(reps, [&] {
                             for (int i = 0; i < iters; ++i) {
                                 w.setRep(Rep::Coeff);
                                 scalar.nttForward(w, tp);
                             }
                         }) /
                         iters;
        rf.optimized_ms = timeMs(reps, [&] {
                              for (int i = 0; i < iters; ++i) {
                                  w.setRep(Rep::Coeff);
                                  simd.nttForward(w, tp);
                              }
                          }) /
                          iters;
        add_row(rf);

        Result ri{"simd_ntt_inverse" + suffix, n, 1, 0, 0};
        ri.baseline_ms = timeMs(reps, [&] {
                             for (int i = 0; i < iters; ++i) {
                                 w.setRep(Rep::Eval);
                                 scalar.nttInverse(w, tp);
                             }
                         }) /
                         iters;
        ri.optimized_ms = timeMs(reps, [&] {
                              for (int i = 0; i < iters; ++i) {
                                  w.setRep(Rep::Eval);
                                  simd.nttInverse(w, tp);
                              }
                          }) /
                          iters;
        add_row(ri);
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
        Result rm{"simd_mul_eval_q42", n, limbs, 0, 0};
        rm.baseline_ms = timeMs(reps, [&] {
            for (int i = 0; i < iters; ++i)
                scalar.mulEval(a, b, mods, rs);
        }) / iters;
        rm.optimized_ms = timeMs(reps, [&] {
            for (int i = 0; i < iters; ++i)
                simd.mulEval(a, b, mods, rv);
        }) / iters;
        add_row(rm);

        // Accumulators stay canonical however often the MAC runs.
        RnsPoly bs = c, as = c, bv = c, av = c;
        scalar.evkMulAcc(a, b, c, limbs, limbs, mods, bs, as);
        simd.evkMulAcc(a, b, c, limbs, limbs, mods, bv, av);
        checkParity(same(bs, bv) && same(as, av),
                    "simd evkMulAcc != scalar");
        Result re{"simd_evk_mac_q42", n, limbs, 0, 0};
        re.baseline_ms = timeMs(reps, [&] {
            for (int i = 0; i < iters; ++i)
                scalar.evkMulAcc(a, b, c, limbs, limbs, mods, bs, as);
        }) / iters;
        re.optimized_ms = timeMs(reps, [&] {
            for (int i = 0; i < iters; ++i)
                simd.evkMulAcc(a, b, c, limbs, limbs, mods, bv, av);
        }) / iters;
        add_row(re);
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
            Result r{std::string("simd_") + name + suffix, n, limbs, 0, 0};
            r.baseline_ms = timeMs(reps, [&] {
                for (int i = 0; i < iters; ++i)
                    op(scalar, rs);
            }) / iters;
            r.optimized_ms = timeMs(reps, [&] {
                for (int i = 0; i < iters; ++i)
                    op(simd, rv);
            }) / iters;
            add_row(r);
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
        Result r{"simd_bconv", n, nb, 0, 0};
        r.baseline_ms = timeMs(reps, [&] {
            RnsPoly out = scalar.bconv(bc, in);
            scalar.pool().release(std::move(out));
        });
        r.optimized_ms = timeMs(reps, [&] {
            RnsPoly out = simd.bconv(bc, in);
            simd.pool().release(std::move(out));
        });
        add_row(r);
    }
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
    // the limb-strided MAC, with freshly allocated (zero-filled)
    // result polys — the process pool stays empty in that loop, so
    // every acquire degenerates to exactly the pre-PR allocation.
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

        // Parity: fused tile path (standalone and backend) == the
        // materialized two-stage pipeline.
        {
            RnsPoly fused = bc.convert(in);
            RnsPoly fused_kb = kb->bconv(bc, in);
            RnsPoly two = bc.matmulStage(bc.scaleStage(in));
            bool same = fused.numLimbs() == two.numLimbs();
            for (size_t l = 0; same && l < fused.numLimbs(); ++l)
                same = std::memcmp(fused.limb(l), two.limb(l),
                                   n * sizeof(u64)) == 0;
            checkParity(same, "fused BConv != two-stage BConv");
            same = fused_kb.numLimbs() == two.numLimbs();
            for (size_t l = 0; same && l < two.numLimbs(); ++l)
                same = std::memcmp(fused_kb.limb(l), two.limb(l),
                                   n * sizeof(u64)) == 0;
            checkParity(same, "backend BConv != two-stage BConv");
        }

        Result r{"bconv", n, cfg.nb, 0, 0};
        // Pin the baseline to pre-PR allocation semantics: with the
        // process pool empty and nothing released inside the loop,
        // every acquire is a fresh zero-filled allocation, exactly
        // what the pre-PR two-stage pipeline paid.
        PolyPool::process().trim();
        r.baseline_ms = timeMs(reps, [&] {
            RnsPoly out = bc.matmulStage(bc.scaleStage(in));
            (void)out;
        });
        r.optimized_ms = timeMs(reps, [&] {
            RnsPoly out = kb->bconv(bc, in);
            kb->pool().release(std::move(out));
        });
        g_results.push_back(r);
        t.addRow({"bconv", std::to_string(n),
                  std::to_string(cfg.nb) + "->" + std::to_string(cfg.nc),
                  TablePrinter::fmt(r.baseline_ms, 3),
                  TablePrinter::fmt(r.optimized_ms, 3),
                  TablePrinter::fmt(r.speedup(), 2)});
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
        Result r{"poly_alloc", n, cfg.limbs, 0, 0};
        r.baseline_ms = timeMs(reps, [&] {
                            for (int i = 0; i < iters; ++i) {
                                RnsPoly p(n, cfg.limbs, Rep::Eval);
                                sink += p.limb(0)[0];
                            }
                        }) /
                        iters;
        r.optimized_ms = timeMs(reps, [&] {
                             for (int i = 0; i < iters; ++i) {
                                 RnsPoly p = pool.acquire(
                                     n, cfg.limbs, Rep::Eval);
                                 sink += p.limb(0)[0];
                                 pool.release(std::move(p));
                             }
                         }) /
                         iters;
        g_results.push_back(r);
        t.addRow({std::to_string(n) + " x " + std::to_string(cfg.limbs),
                  TablePrinter::fmt(r.baseline_ms * 1000, 2),
                  TablePrinter::fmt(r.optimized_ms * 1000, 2),
                  TablePrinter::fmt(r.speedup(), 2)});
    }
    t.print();
    std::printf("\n");
}

// ---------------------------------------------------------------------------
// Serial vs pool executor at the same kernel table (full mode only)
// ---------------------------------------------------------------------------

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

        auto row = [&](const char *name, auto &&kernel) {
            // The kernel receives the backend; transformed data is
            // still valid input for the next rep.
            double ms_s = timeMs(reps, [&] { kernel(serial); });
            double ms_p = timeMs(reps, [&] { kernel(pool); });
            t.addRow({name, std::to_string(n), std::to_string(limbs),
                      TablePrinter::fmt(ms_s, 3),
                      TablePrinter::fmt(ms_p, 3),
                      TablePrinter::fmt(ms_s / ms_p, 2)});
        };

        row("ntt_forward", [&](KernelBackend &kb) {
            RnsPoly p = poly;
            p.setRep(Rep::Coeff);
            kb.nttForward(p, table_ptrs);
        });
        row("ntt_inverse", [&](KernelBackend &kb) {
            RnsPoly p = poly;
            kb.nttInverse(p, table_ptrs);
        });
        row("bconv", [&](KernelBackend &kb) {
            RnsPoly p = poly;
            p.setRep(Rep::Coeff);
            auto out = kb.bconv(bc, p);
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
    t.print();
    std::printf("\n");
}

// ---------------------------------------------------------------------------
// JSON emission (consumed by scripts/check_bench_regression.py)
// ---------------------------------------------------------------------------

bool
writeJson(const std::string &path, bool smoke)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     path.c_str());
        return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"bench_micro_kernels\",\n");
    std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    // Provenance of the vector rows: the regression checker refuses to
    // compare simd_* entries across differing tiers, and the feature
    // list pins down which host recorded a committed baseline.
    std::fprintf(f, "  \"simd_tier\": \"%s\",\n", g_simd_tier.c_str());
    std::fprintf(f, "  \"cpu_features\": \"%s\",\n",
                 cpuFeatureString().c_str());
    std::fprintf(f, "  \"parity_ok\": %s,\n",
                 g_parity_ok ? "true" : "false");
    std::fprintf(f, "  \"results\": [\n");
    for (size_t i = 0; i < g_results.size(); ++i) {
        const Result &r = g_results[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"n\": %zu, \"limbs\": "
                     "%zu, \"baseline_ms\": %.6f, \"optimized_ms\": "
                     "%.6f, \"speedup\": %.3f}%s\n",
                     r.name.c_str(), r.n, r.limbs, r.baseline_ms,
                     r.optimized_ms, r.speedup(),
                     i + 1 < g_results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
}

#ifdef ARK_HAVE_GBENCH

// ---------------------------------------------------------------------------
// google-benchmark suite (optional; run with --gbench)
// ---------------------------------------------------------------------------

void
BM_NttForward(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    u64 prime = generatePrimes(50, 1, n).front();
    NttTables tables(n, Modulus(prime));
    Rng rng(1);
    auto v = rng.uniformVector(n, prime);
    for (auto _ : state) {
        tables.forward(v.data());
        benchmark::DoNotOptimize(v.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NttForward)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16);

void
BM_FourStepNtt(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    u64 prime = generatePrimes(50, 1, n).front();
    FourStepNtt ntt(n, Modulus(prime));
    Rng rng(2);
    auto v = rng.uniformVector(n, prime);
    for (auto _ : state) {
        auto out = ntt.forward(v);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FourStepNtt)->Arg(1 << 12)->Arg(1 << 16);

void
BM_BConv(benchmark::State &state)
{
    const size_t n = 1 << 13;
    const size_t in_limbs = static_cast<size_t>(state.range(0));
    auto pb = generatePrimes(45, in_limbs, n);
    auto pc = generatePrimes(50, 8, n, pb);
    std::vector<Modulus> mb, mc;
    for (u64 p : pb)
        mb.emplace_back(p);
    for (u64 p : pc)
        mc.emplace_back(p);
    BaseConverter bc(mb, mc);
    Rng rng(3);
    RnsPoly in(n, in_limbs, Rep::Coeff);
    for (size_t l = 0; l < in_limbs; ++l) {
        auto v = rng.uniformVector(n, pb[l]);
        std::copy(v.begin(), v.end(), in.limb(l));
    }
    for (auto _ : state) {
        auto out = bc.convert(in);
        benchmark::DoNotOptimize(out.limb(0));
    }
    state.SetItemsProcessed(state.iterations() * n * in_limbs * 8);
}
BENCHMARK(BM_BConv)->Arg(2)->Arg(6)->Arg(12);

void
BM_Automorphism(benchmark::State &state)
{
    const size_t n = 1 << 14;
    u64 prime = generatePrimes(50, 1, n).front();
    Automorphism am(galoisElt(5, n), n);
    Rng rng(4);
    auto in = rng.uniformVector(n, prime);
    std::vector<u64> out(n);
    for (auto _ : state) {
        am.applyEval(in.data(), out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Automorphism);

void
BM_KeySwitch(benchmark::State &state)
{
    static CkksContext ctx(CkksParams::testSmall());
    static Rng rng(5);
    static KeyGenerator keygen(ctx, rng);
    static SecretKey sk = keygen.secretKey();
    static EvalKey evk = keygen.evkMult(sk);
    CkksEvaluator eval(ctx);
    const int level = static_cast<int>(state.range(0));
    RnsPoly d(ctx.degree(), level + 1, Rep::Eval);
    for (int l = 0; l <= level; ++l) {
        auto v = rng.uniformVector(ctx.degree(),
                                   ctx.qModuli()[l].value());
        std::copy(v.begin(), v.end(), d.limb(l));
    }
    for (auto _ : state) {
        auto [b, a] = eval.keySwitch(d, evk, level);
        benchmark::DoNotOptimize(b.limb(0));
        benchmark::DoNotOptimize(a.limb(0));
    }
}
BENCHMARK(BM_KeySwitch)->Arg(3)->Arg(7);

void
BM_HMult(benchmark::State &state)
{
    static CkksContext ctx(CkksParams::testSmall());
    static Rng rng(6);
    static CkksEncoder enc(ctx);
    static KeyGenerator keygen(ctx, rng);
    static SecretKey sk = keygen.secretKey();
    static EvalKey evk = keygen.evkMult(sk);
    CkksEncryptor encryptor(ctx, rng);
    CkksEvaluator eval(ctx);
    std::vector<Complex> m(64, Complex(0.5, -0.25));
    auto ct1 = encryptor.encryptSymmetric(
        enc.encode(m, ctx.maxLevel()), sk);
    auto ct2 = ct1;
    ct1.slots = ct2.slots = 64;
    for (auto _ : state) {
        auto prod = eval.rescale(eval.mul(ct1, ct2, evk));
        benchmark::DoNotOptimize(prod.b.limb(0));
    }
}
BENCHMARK(BM_HMult);

#endif // ARK_HAVE_GBENCH

void
printUsage(const char *argv0)
{
    std::printf(
        "usage: %s [--smoke] [--json PATH] [--gbench [args...]]\n"
        "  (no args)     self-timed suite: lazy-vs-strict NTT, simd-\n"
        "                vs-scalar kernels (best host ISA), fused-\n"
        "                vs-two-stage BConv, pooled-vs-fresh alloc,\n"
        "                serial-vs-pool executor table\n"
        "  --smoke       reduced sizes/reps for CI; parity checks\n"
        "                still gate (nonzero exit on mismatch)\n"
        "  --json PATH   also write results as JSON (for\n"
        "                scripts/check_bench_regression.py)\n"
        "  --gbench ...  run the google-benchmark suite instead,\n"
        "                forwarding the remaining arguments%s\n",
        argv0,
#ifdef ARK_HAVE_GBENCH
        ""
#else
        " (UNAVAILABLE in this build: google-benchmark not found)"
#endif
    );
}

} // namespace
} // namespace ark

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--json") == 0 &&
                   i + 1 < argc) {
            json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--gbench") == 0) {
#ifdef ARK_HAVE_GBENCH
            // Hand the remaining args to google-benchmark verbatim.
            int gargc = argc - i;
            benchmark::Initialize(&gargc, argv + i);
            benchmark::RunSpecifiedBenchmarks();
            benchmark::Shutdown();
            return 0;
#else
            std::fprintf(stderr,
                         "--gbench: built without google-benchmark; "
                         "the self-timed mode needs no flags\n");
            return 2;
#endif
        } else if (std::strcmp(argv[i], "--help") == 0) {
            ark::printUsage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
            ark::printUsage(argv[0]);
            return 2;
        }
    }

    ark::runNttComparison(smoke);
    ark::runSimdComparison(smoke);
    ark::runBconvComparison(smoke);
    ark::runPoolComparison(smoke);
    if (!smoke)
        ark::printBackendComparison();

    if (!json_path.empty() && !ark::writeJson(json_path, smoke))
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
