/**
 * @file
 * boot: the paper's headline operation. One thread bootstraps a
 * level-0 ciphertext at testBoot (N=2^12, L=20, dnum=3) with Min-KS
 * and OF-Limb, one request in flight. Kernels, key switching and the
 * bootstrapping pipeline do all the work; serve, wire and net are
 * bypassed.
 */

#include "boot/bootstrapper.h"
#include "ckks/encryptor.h"
#include "layers.h"
#include "workloads.h"

namespace arkbench {

using namespace ark;

namespace {

/** Set-ups per end-to-end run: each includes the warm-up bootstrap. */
constexpr size_t kSetups = 3;
/** Precision floor of a correct bootstrap at testBoot. */
constexpr double kMinBootBits = 10.0;
constexpr const char *kImprecise = "boot: bootstrap precision below the floor";

CkksParams
bootParams()
{
    CkksParams p = CkksParams::testBoot();
    p.backend = BackendKind::Simd;
    return p;
}

/**
 * Everything one bootstrap request needs. Construction includes the
 * untimed warm-up bootstrap that fills the KeyCache, whose output is
 * the reference every timed request must reproduce bit for bit.
 */
struct BootState
{
    CkksContext ctx;
    CkksEncoder encoder{ctx};
    Rng rng;
    KeyGenerator keygen{ctx, rng};
    SecretKey sk = keygen.secretKey();
    CkksEncryptor encryptor{ctx, rng};
    CkksDecryptor decryptor{ctx, sk};
    CkksEvaluator eval{ctx};
    KeyCache keys{keygen, sk, ctx.degree()};
    Bootstrapper boot{ctx, encoder,
                      BootConfig{KeySchedule::MinKS, PlaintextMode::OFLimb,
                                 EvalModConfig{15, 8}, 256.0}};
    Slots msg;
    Ciphertext input;
    BootStats warm_stats;
    u64 ref_checksum = 0;
    double precision_bits = 0;

    explicit BootState(u64 seed) : ctx(bootParams()), rng(seed)
    {
        const size_t slots = ctx.params().num_slots;
        msg = seededMessage(seed ^ 0xB007, slots, 0.5);
        // Delta0 = q0 / msg_ratio: the ratio bounds the precision
        // amplification of bootstrapping.
        const double delta0 =
            static_cast<double>(ctx.qModuli()[0].value()) / boot.config().msg_ratio;
        input = encryptor.encryptSymmetric(encoder.encode(msg, 0, delta0), sk);
        input.slots = slots;
        const Ciphertext out = boot.bootstrap(eval, input, keys, &warm_stats);
        ref_checksum = ciphertextChecksum(out);
        precision_bits =
            precisionBits(encoder.decode(decryptor.decrypt(out), slots), msg);
    }
};

/** Closed loop of bootstraps until the deadline; spans when traced. */
LoopStats
bootLoop(BootState &s, double seconds, SpanLog &log, u64 &next_id)
{
    LoopStats loop(seconds);
    while (loop.open()) {
        const u64 id = next_id++;
        const auto t0 = Clock::now();
        const Ciphertext out = s.boot.bootstrap(s.eval, s.input, s.keys);
        const auto t1 = Clock::now();
        log.add("boot.bootstrap", id, t0, t1);
        const bool ok = ciphertextChecksum(out) == s.ref_checksum;
        log.add("bench.verify", id, t1, Clock::now());
        loop.finish(t0, t1, ok);
    }
    return loop;
}

} // namespace

RunResult
runBoot(const Options &opt, SpanLog &log)
{
    RunResult out;
    out.threads = 1;
    std::vector<double> setup_s;
    auto s = setUpRepeated<BootState>(opt.trace ? 1 : kSetups, setup_s,
                                      [&] { return std::make_unique<BootState>(opt.seed); });
    const bool precise = s->precision_bits >= kMinBootBits;
    u64 next_id = 1;

    if (!opt.trace) {
        const LoopStats loop = bootLoop(*s, opt.seconds, log, next_id);
        addEndToEnd(out, loop, setup_s, s->precision_bits, precise);
        if (!precise)
            failAll(out, kImprecise);
        return out;
    }

    const LoopStats plain = bootLoop(*s, opt.seconds / 2, log, next_id);
    log.setEnabled(true);
    const KernelStats before = s->ctx.backend().stats();
    const LoopStats traced = bootLoop(*s, opt.seconds / 2, log, next_id);
    const KernelStats delta = statsDelta(s->ctx.backend().stats(), before);
    book(out, plain);
    book(out, traced);
    const u64 reqs = traced.attempted;
    const double lat = mean(traced.latency_ms);
    const double p50 = median(plain.latency_ms);

    const RnsProbe rns = probeRns(s->ctx, s->keys.multiplication(), log);
    addRnsMetrics(out, rns, delta, reqs, lat);

    const int top = s->ctx.maxLevel();
    const Slots m = seededMessage(opt.seed ^ 0xC0DE, s->ctx.params().num_slots, 0.5);
    Ciphertext fresh = s->encryptor.encryptSymmetric(s->encoder.encode(m, top), s->sk);
    fresh.slots = m.size();
    const BootStats &bs = s->warm_stats;
    const size_t rotations =
        bs.subsum_rotations + bs.hidft.rotations + bs.hdft.rotations;
    const size_t pmults = bs.hidft.pmults + bs.hdft.pmults;
    // Key switches (rotations, one conjugation, EvalMod's HMults) plus
    // plaintext multiplies, as BootStats counts them.
    const double he_ops = static_cast<double>(rotations + 1 + bs.evalmod_mults + pmults);
    addCkksMetrics(out,
                   probeCkks(s->eval, fresh, s->encoder.encode(m, top), s->keys, log),
                   he_ops);

    // Stage timings by direct calls: ModRaise on the request's input,
    // and EvalMod (run twice per bootstrap, on the real and imaginary
    // parts) on a ciphertext at its input level, L - 1.
    auto t0 = Clock::now();
    const double modraise_ms =
        medianCallMs([&] { (void)s->eval.modRaise(s->input); }, 40, 5);
    log.add("probe.boot.modraise", 0, t0, Clock::now());
    Ciphertext em_in = s->encryptor.encryptSymmetric(
        s->encoder.encode(m, top - 1), s->sk);
    em_in.slots = m.size();
    const double ratio_inv = 1.0 / s->boot.config().msg_ratio;
    t0 = Clock::now();
    const double evalmod_ms = 2 * medianCallMs(
        [&] {
            (void)evalMod(s->eval, em_in, s->keys.multiplication(),
                          s->boot.config().evalmod, ratio_inv);
        },
        0, 3);
    log.add("probe.boot.evalmod", 0, t0, Clock::now());
    out.add("boot.modraise_ms", modraise_ms, "ms");
    out.add("boot.evalmod_ms", evalmod_ms, "ms");
    out.add("boot.transforms_ms", p50 - modraise_ms - evalmod_ms, "ms");
    out.add("boot.rotations", static_cast<double>(rotations), "count");
    out.add("boot.distinct_evks", static_cast<double>(s->keys.distinctGaloisKeys()),
            "count");
    out.add("boot.pmults", static_cast<double>(pmults), "count");
    out.add("boot.evk_resident_mib",
            static_cast<double>(s->keys.byteSize()) / (1024.0 * 1024.0), "MiB");

    SelfTimeTable table;
    table.latency_ms = lat;
    table.rows.push_back({"rns", "model", modelKernelMs(delta, rns) / static_cast<double>(reqs)});
    table.close();
    finishTrace(out, table, "boot", p50, median(traced.latency_ms),
                table.largest() == "rns", "rns is the largest share");
    if (!precise)
        failAll(out, kImprecise);
    return out;
}

} // namespace arkbench
