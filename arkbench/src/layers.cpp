#include "layers.h"

#include "common/random.h"
#include "workloads.h"

namespace arkbench {

using namespace ark;

void
finishTrace(RunResult &out, const SelfTimeTable &table, const std::string &workload,
            double untraced_p50_ms, double traced_p50_ms, bool expect,
            const char *expectation)
{
    out.add("trace.overhead_share",
            untraced_p50_ms > 0 ? traced_p50_ms / untraced_p50_ms - 1 : 0, "fraction");
    out.add("trace.unattributed_share", table.share("unattributed"), "fraction");
    for (std::string &line : table.render(workload))
        out.notes.push_back(std::move(line));
    out.notes.push_back("check " + workload + ": " + expectation + ": " +
                        (expect ? "yes" : "NO"));
    out.checks_hold = table.holds() && expect;
}

Slots
seededMessage(u64 seed, size_t slots, double mag)
{
    Rng rng(seed);
    Slots m(slots);
    for (auto &x : m)
        x = {(rng.uniformReal() * 2 - 1) * mag, (rng.uniformReal() * 2 - 1) * mag};
    return m;
}

namespace {

/** A poly of canonical random residues over @p moduli. */
RnsPoly
randomPoly(size_t n, const std::vector<Modulus> &moduli, size_t limbs, Rep rep,
           Rng &rng)
{
    RnsPoly p(n, limbs, rep);
    for (size_t l = 0; l < limbs; ++l) {
        u64 *w = p.limb(l);
        for (size_t i = 0; i < n; ++i)
            w[i] = rng.uniform(moduli[l].value());
    }
    return p;
}

u64
kernelUnits(const KernelCounter &c)
{
    return c.mults != 0 ? c.mults : c.words;
}

constexpr double kProbeBudgetMs = 40;
constexpr size_t kProbeMinReps = 5;

/**
 * Time @p fn as kernel @p op: median per-call time in us, and the
 * probed rate (ns per unit of @p op's counter) stored into @p probe.
 */
template <typename F>
double
probeKernel(const CkksContext &ctx, RnsProbe &probe, KernelOp op,
            SpanLog &log, const char *span, F &&fn)
{
    const KernelStats before = ctx.backend().stats();
    size_t calls = 0;
    const auto t0 = Clock::now();
    const double ms = medianCallMs(
        [&] {
            fn();
            ++calls;
        },
        kProbeBudgetMs, kProbeMinReps);
    log.add(span, 0, t0, Clock::now());
    const KernelStats d = statsDelta(ctx.backend().stats(), before);
    const double units = static_cast<double>(kernelUnits(d.at(op))) /
                         static_cast<double>(calls);
    if (units > 0)
        probe.ns_per_unit[static_cast<size_t>(op)] = ms * 1e6 / units;
    return ms * 1e3;
}

} // namespace

RnsProbe
probeRns(const CkksContext &ctx, const EvalKey &evk, SpanLog &log)
{
    RnsProbe p;
    KernelBackend &kb = ctx.backend();
    const size_t n = ctx.degree();
    const int level = ctx.maxLevel();
    const size_t nq = ctx.params().numLimbs(level);
    const size_t np = ctx.pModuli().size();
    const size_t alpha = static_cast<size_t>(ctx.alpha());
    const std::vector<Modulus> qm = ctx.levelModuli(level);
    const std::vector<Modulus> km = ctx.keyModuli(level);
    Rng rng(0xA11CE);

    // NTT forward and inverse alternate on one poly so each call sees
    // the representation it expects.
    RnsPoly x = randomPoly(n, qm, nq, Rep::Coeff, rng);
    const auto &tables = ctx.qTablePtrs(nq);
    std::vector<double> fwd, inv;
    {
        const KernelStats before = kb.stats();
        const auto start = Clock::now();
        while (fwd.size() < kProbeMinReps ||
               msBetween(start, Clock::now()) < 2 * kProbeBudgetMs) {
            const auto t0 = Clock::now();
            kb.nttForward(x, tables);
            const auto t1 = Clock::now();
            kb.nttInverse(x, tables);
            const auto t2 = Clock::now();
            fwd.push_back(msBetween(t0, t1));
            inv.push_back(msBetween(t1, t2));
        }
        log.add("probe.rns.ntt", 0, start, Clock::now());
        const KernelStats d = statsDelta(kb.stats(), before);
        const double reps = static_cast<double>(fwd.size());
        p.ntt_fwd_us = median(fwd) * 1e3;
        p.ntt_inv_us = median(inv) * 1e3;
        p.ns_per_unit[static_cast<size_t>(KernelOp::NttForward)] =
            p.ntt_fwd_us * 1e3 * reps /
            static_cast<double>(kernelUnits(d.at(KernelOp::NttForward)));
        p.ns_per_unit[static_cast<size_t>(KernelOp::NttInverse)] =
            p.ntt_inv_us * 1e3 * reps /
            static_cast<double>(kernelUnits(d.at(KernelOp::NttInverse)));
    }

    // Standalone BConv as ModDown runs it: the special primes to the
    // q chain, in Coeff rep.
    const RnsPoly pin =
        randomPoly(n, ctx.pModuli(), np, Rep::Coeff, rng);
    p.bconv_us = probeKernel(ctx, p, KernelOp::BConv, log, "probe.rns.bconv", [&] {
        kb.pool().release(kb.bconv(ctx.modDownConverter(level), pin));
    });

    // The fused digit path for digit 0, wired as decompose() wires it.
    {
        const RnsPoly digit = randomPoly(n, qm, alpha, Rep::Eval, rng);
        std::vector<const NttTables *> in_t, out_t;
        for (size_t l = 0; l < alpha; ++l)
            in_t.push_back(&ctx.qTables()[l]);
        for (size_t l = alpha; l < nq + np; ++l)
            out_t.push_back(&ctx.keyTable(l, level));
        const BaseConverter &bc = ctx.digitConverter(level, 0);
        // No rate: the model counts this work under its NTT and BConv
        // parts (see modelKernelMs).
        const auto t0 = Clock::now();
        p.ntt_bconv_ntt_us = 1e3 * medianCallMs(
            [&] { kb.pool().release(kb.nttBconvNtt(digit, in_t, bc, out_t)); },
            kProbeBudgetMs, kProbeMinReps);
        log.add("probe.rns.ntt_bconv_ntt", 0, t0, Clock::now());
    }

    {
        const RnsPoly digit = randomPoly(n, km, nq + np, Rep::Eval, rng);
        RnsPoly acc_b(n, nq + np, Rep::Eval), acc_a(n, nq + np, Rep::Eval);
        const size_t full_nq = ctx.params().numLimbs(ctx.maxLevel());
        p.evk_mac_us = probeKernel(ctx, p, KernelOp::EvkMulAcc, log,
                                   "probe.rns.evk_mac", [&] {
            kb.evkMulAcc(digit, evk.b[0], evk.a[0], nq, full_nq, km, acc_b,
                         acc_a);
        });
    }

    const RnsPoly y = randomPoly(n, qm, nq, Rep::Eval, rng);
    const RnsPoly z = randomPoly(n, qm, nq, Rep::Eval, rng);
    const Automorphism &am = ctx.automorphism(galoisElt(1, n));
    p.automorphism_us = probeKernel(ctx, p, KernelOp::Automorphism, log,
                                    "probe.rns.automorphism", [&] {
        kb.pool().release(kb.automorphism(am, y, qm));
    });

    // Element-wise kernels are memory-bound loops of one shape; the
    // two probed here set the rate of every other element-wise kernel
    // (per modular multiplication, or per word for mult-free ones).
    RnsPoly r(n, nq, Rep::Eval);
    probeKernel(ctx, p, KernelOp::MulEval, log, "probe.rns.mul_eval",
                [&] { kb.mulEval(y, z, qm, r); });
    probeKernel(ctx, p, KernelOp::Add, log, "probe.rns.add",
                [&] { kb.add(y, z, qm, r); });
    const double per_mult = p.ns_per_unit[static_cast<size_t>(KernelOp::MulEval)];
    const double per_word = p.ns_per_unit[static_cast<size_t>(KernelOp::Add)];
    for (KernelOp op : {KernelOp::Sub, KernelOp::Neg, KernelOp::MonomialMul,
                        KernelOp::AddScalar, KernelOp::LimbEmbed})
        p.ns_per_unit[static_cast<size_t>(op)] = per_word;
    for (KernelOp op : {KernelOp::MulAccEval, KernelOp::MulScalar,
                        KernelOp::SubMulScalar})
        p.ns_per_unit[static_cast<size_t>(op)] = per_mult;
    return p;
}

KernelStats
statsDelta(const KernelStats &after, const KernelStats &before)
{
    KernelStats d;
    for (size_t i = 0; i < kNumKernelOps; ++i) {
        d.counters[i].calls = after.counters[i].calls - before.counters[i].calls;
        d.counters[i].limbs = after.counters[i].limbs - before.counters[i].limbs;
        d.counters[i].words = after.counters[i].words - before.counters[i].words;
        d.counters[i].mults = after.counters[i].mults - before.counters[i].mults;
    }
    d.evk_words = after.evk_words - before.evk_words;
    d.plaintext_words = after.plaintext_words - before.plaintext_words;
    return d;
}

double
modelKernelMs(const KernelStats &delta, const RnsProbe &probe)
{
    double ns = 0;
    for (size_t i = 0; i < kNumKernelOps; ++i) {
        if (static_cast<KernelOp>(i) == KernelOp::NttBconvNtt)
            continue;
        ns += static_cast<double>(kernelUnits(delta.counters[i])) *
              probe.ns_per_unit[i];
    }
    return ns / 1e6;
}

void
addRnsMetrics(RunResult &out, const RnsProbe &probe, const KernelStats &delta,
              u64 requests, double latency_ms)
{
    const double reqs = static_cast<double>(requests > 0 ? requests : 1);
    const double mib = 8.0 / (1024.0 * 1024.0); // words -> MiB
    out.add("rns.ntt_fwd_us", probe.ntt_fwd_us, "us");
    out.add("rns.ntt_inv_us", probe.ntt_inv_us, "us");
    out.add("rns.bconv_us", probe.bconv_us, "us");
    out.add("rns.ntt_bconv_ntt_us", probe.ntt_bconv_ntt_us, "us");
    out.add("rns.evk_mac_us", probe.evk_mac_us, "us");
    out.add("rns.automorphism_us", probe.automorphism_us, "us");
    // The fused marker entry is not a call of its own.
    const u64 calls = delta.totalCalls() - delta.at(KernelOp::NttBconvNtt).calls;
    out.add("rns.kernel_calls_per_req", static_cast<double>(calls) / reqs, "count");
    out.add("rns.mwords_per_req", static_cast<double>(delta.totalWords()) / reqs / 1e6,
            "Mword");
    out.add("rns.evk_mib_per_req", static_cast<double>(delta.evk_words) * mib / reqs,
            "MiB");
    out.add("rns.pt_mib_per_req",
            static_cast<double>(delta.plaintext_words) * mib / reqs, "MiB");
    out.add("rns.kernel_share",
            latency_ms > 0 ? modelKernelMs(delta, probe) / reqs / latency_ms : 0,
            "fraction");
}

CkksProbe
probeCkks(const CkksEvaluator &eval, const Ciphertext &top, const Plaintext &pt,
          KeyCache &keys, SpanLog &log)
{
    CkksProbe p;
    const EvalKey &mult = keys.multiplication();
    const EvalKey &rot = keys.rotation(1);
    const auto t0 = Clock::now();
    p.hmult_ms = medianCallMs([&] { (void)eval.mul(top, top, mult); },
                              kProbeBudgetMs, kProbeMinReps);
    p.hrot_ms = medianCallMs([&] { (void)eval.rotate(top, 1, rot); },
                             kProbeBudgetMs, kProbeMinReps);
    p.pmult_ms = medianCallMs([&] { (void)eval.mulPlain(top, pt); },
                              kProbeBudgetMs, kProbeMinReps);
    const Ciphertext prod = eval.mulPlain(top, pt);
    p.rescale_ms = medianCallMs([&] { (void)eval.rescale(prod); },
                                kProbeBudgetMs, kProbeMinReps);
    log.add("probe.ckks", 0, t0, Clock::now());
    return p;
}

void
addCkksMetrics(RunResult &out, const CkksProbe &probe, double he_ops_per_req)
{
    out.add("ckks.hmult_ms", probe.hmult_ms, "ms");
    out.add("ckks.hrot_ms", probe.hrot_ms, "ms");
    out.add("ckks.pmult_ms", probe.pmult_ms, "ms");
    out.add("ckks.rescale_ms", probe.rescale_ms, "ms");
    out.add("ckks.he_ops_per_req", he_ops_per_req, "count");
}

Slots
replayWorkload(const ServeWorkload &w, Slots m, const std::vector<Slots> &pts)
{
    const size_t n = m.size();
    for (const ServeOp &op : w.ops) {
        switch (op.kind) {
          case ServeOpKind::Square:
            for (auto &x : m)
                x *= x;
            break;
          case ServeOpKind::Rescale:
            break;
          case ServeOpKind::Rotate: {
            Slots r(n);
            const size_t k = static_cast<size_t>(
                ((op.rotation % static_cast<i64>(n)) + static_cast<i64>(n)) %
                static_cast<i64>(n));
            for (size_t i = 0; i < n; ++i)
                r[i] = m[(i + k) % n];
            m = std::move(r);
            break;
          }
          case ServeOpKind::MulPlain: {
            const Slots &p = pts[op.pt_index % pts.size()];
            for (size_t i = 0; i < n; ++i)
                m[i] *= p[i];
            break;
          }
          case ServeOpKind::AddScalar:
            for (auto &x : m)
                x += op.scalar;
            break;
        }
    }
    return m;
}

Ciphertext
executeDirect(const CkksEvaluator &eval, const ServeWorkload &w, Ciphertext ct,
              KeyCache &keys, const PlaintextStore &store)
{
    for (const ServeOp &op : w.ops) {
        switch (op.kind) {
          case ServeOpKind::Square:
            ct = eval.square(ct, keys.multiplication());
            break;
          case ServeOpKind::Rescale:
            ct = eval.rescale(ct);
            break;
          case ServeOpKind::Rotate:
            ct = eval.rotate(ct, op.rotation, keys.rotation(op.rotation));
            break;
          case ServeOpKind::MulPlain:
            ct = eval.mulPlain(ct, store.get(op.pt_index % store.size(), ct.level()));
            break;
          case ServeOpKind::AddScalar:
            ct = eval.addScalar(ct, op.scalar);
            break;
        }
    }
    return ct;
}

} // namespace arkbench
