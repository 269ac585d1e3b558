/**
 * @file
 * serve: one submitter thread keeps kDepth requests in flight against
 * an in-process BatchServer with 2 workers at testSmall (N=2^11, L=7).
 * Every request is the lowered bootstrapping trace, so queue wait,
 * dispatch and two-worker contention dominate; wire and net are
 * bypassed.
 */

#include <deque>

#include "ckks/encryptor.h"
#include "layers.h"
#include "serve/batch_server.h"
#include "workloads.h"

namespace arkbench {

using namespace ark;

namespace {

constexpr size_t kDepth = 8;   ///< closed-loop requests in flight
constexpr size_t kWorkers = 2;
constexpr size_t kInputs = 4;  ///< distinct inputs, cycled per request
constexpr size_t kSetups = 11; ///< set-ups per end-to-end run
/** Precision floor of the lowered trace against its cleartext replay. */
constexpr double kMinServeBits = 20.0;
constexpr const char *kImprecise = "serve: precision against the replay below the floor";

CkksParams
serveParams()
{
    CkksParams p = CkksParams::testSmall();
    p.backend = BackendKind::Simd;
    return p;
}

/** BatchServer knobs: the defaults pinned explicitly (admission off,
 *  source order, one shard, no watchdog). */
BatchServerConfig
serverConfig(size_t workers)
{
    BatchServerConfig cfg;
    cfg.workers = workers;
    cfg.queue_capacity = 4 * kDepth;
    cfg.schedule = SchedulePolicy::SourceOrder;
    cfg.shards = 1;
    cfg.admission.enabled = false;
    cfg.watchdog_interval_ms = 0;
    return cfg;
}

/**
 * The serving stack plus its references: per input, the checksum of
 * the sequential direct execution every response must match, and the
 * precision of that result against the cleartext replay.
 */
struct ServeState
{
    CkksContext ctx{serveParams()};
    CkksEncoder encoder{ctx};
    Rng rng;
    KeyGenerator keygen{ctx, rng};
    SecretKey sk = keygen.secretKey();
    CkksEncryptor encryptor{ctx, rng};
    CkksDecryptor decryptor{ctx, sk};
    CkksEvaluator eval{ctx};
    KeyCache keys{keygen, sk, ctx.degree()};
    PlaintextStore store{ctx, PlaintextMode::OFLimb};
    std::vector<Slots> pt_msgs;
    std::vector<Slots> in_msgs;
    /** kInputs copies of the one request shape, one per input. */
    std::vector<ServeWorkload> workloads;
    std::vector<Ciphertext> inputs;
    std::vector<u64> ref;
    double precision_bits = 64;
    std::unique_ptr<BatchServer> server;

    explicit ServeState(u64 seed) : rng(seed)
    {
        const size_t slots = ctx.params().num_slots;
        const int top = ctx.maxLevel();
        const ServeWorkload shape = standardServingMix(ctx.params())[0];
        for (size_t k = 0; k < kInputs; ++k) {
            pt_msgs.push_back(seededMessage(seed * 31 + k, slots, 0.9));
            store.insert(encoder.encode(pt_msgs.back(), top));
            in_msgs.push_back(seededMessage(seed * 37 + k, slots, 0.5));
            inputs.push_back(
                encryptor.encryptSymmetric(encoder.encode(in_msgs.back(), top), sk));
            inputs.back().slots = slots;
            workloads.push_back(shape);
            workloads.back().input_index = k;
        }
        server = std::make_unique<BatchServer>(ctx, keys, store, workloads, inputs,
                                               serverConfig(kWorkers));
        for (size_t k = 0; k < kInputs; ++k) {
            const Ciphertext out = executeDirect(eval, workloads[k], inputs[k], keys, store);
            ref.push_back(ciphertextChecksum(out));
            const Slots want = replayWorkload(workloads[k], in_msgs[k], pt_msgs);
            precision_bits = std::min(
                precision_bits,
                precisionBits(encoder.decode(decryptor.decrypt(out), slots), want));
        }
    }
};

struct ServeLoop
{
    LoopStats loop;
    std::vector<double> exec_ms; ///< ServeResult::latency_ms, in-window
    std::vector<double> wait_ms; ///< caller latency minus exec
    u64 not_ok = 0;              ///< ServeResult::ok false
};

ServeLoop
serveLoop(ServeState &s, BatchServer &server, double seconds, SpanLog &log,
          u64 &next_id)
{
    ServeLoop o{LoopStats(seconds), {}, {}, 0};
    struct Pending
    {
        std::future<ServeResult> fut;
        Clock::time_point t0;
        size_t workload;
        u64 id;
        long submit_span;
    };
    std::deque<Pending> flight;
    size_t k = 0;
    auto submit = [&] {
        const size_t w = k++ % s.workloads.size();
        const u64 id = next_id++;
        const auto t0 = Clock::now();
        std::future<ServeResult> fut = server.submit(w);
        const long span = log.add("serve.submit", id, t0, Clock::now());
        flight.push_back({std::move(fut), t0, w, id, span});
    };
    for (size_t i = 0; i < kDepth; ++i)
        submit();
    while (!flight.empty()) {
        Pending p = std::move(flight.front());
        flight.pop_front();
        const auto g0 = Clock::now();
        const ServeResult r = p.fut.get();
        const auto t = Clock::now();
        const long get = log.add("serve.get", p.id, g0, t);
        const long root = log.add("serve.request", p.id, p.t0, t);
        log.setParent(p.submit_span, root);
        log.setParent(get, root);
        o.not_ok += r.ok ? 0 : 1;
        if (o.loop.finish(p.t0, t, r.ok && r.checksum == s.ref[p.workload])) {
            o.exec_ms.push_back(r.latency_ms);
            o.wait_ms.push_back(msBetween(p.t0, t) - r.latency_ms);
        }
        if (o.loop.open())
            submit();
    }
    return o;
}

} // namespace

RunResult
runServe(const Options &opt, SpanLog &log)
{
    RunResult out;
    out.threads = 1 + kWorkers;
    std::vector<double> setup_s;
    auto s = setUpRepeated<ServeState>(opt.trace ? 1 : kSetups, setup_s,
                                       [&] { return std::make_unique<ServeState>(opt.seed); });
    const bool precise = s->precision_bits >= kMinServeBits;
    u64 next_id = 1;
    book(out, serveLoop(*s, *s->server, kWarmupS, log, next_id).loop);

    if (!opt.trace) {
        const ServeLoop o = serveLoop(*s, *s->server, opt.seconds, log, next_id);
        addEndToEnd(out, o.loop, setup_s, s->precision_bits, precise);
        if (!precise)
            failAll(out, kImprecise);
        return out;
    }

    const ServeLoop plain = serveLoop(*s, *s->server, opt.seconds / 2, log, next_id);
    log.setEnabled(true);
    const KernelStats before = s->ctx.backend().stats();
    const ServeLoop traced = serveLoop(*s, *s->server, opt.seconds / 2, log, next_id);
    const KernelStats delta = statsDelta(s->ctx.backend().stats(), before);
    // The same stream against one worker, untraced: the scaling
    // denominator.
    log.setEnabled(false);
    ServeLoop single{LoopStats(0), {}, {}, 0};
    {
        BatchServer one(s->ctx, s->keys, s->store, s->workloads, s->inputs,
                        serverConfig(1));
        single = serveLoop(*s, one, opt.seconds / 4, log, next_id);
    }
    log.setEnabled(true);
    book(out, plain.loop);
    book(out, traced.loop);
    book(out, single.loop);

    const LoopStats &tl = traced.loop;
    const u64 reqs = tl.attempted;
    const double lat = mean(tl.latency_ms);
    const RnsProbe rns = probeRns(s->ctx, s->keys.multiplication(), log);
    addRnsMetrics(out, rns, delta, reqs, lat);
    const int top = s->ctx.maxLevel();
    addCkksMetrics(out,
                   probeCkks(s->eval, s->inputs[0], s->store.get(0, top), s->keys, log),
                   static_cast<double>(s->workloads[0].ops.size()));

    const double rate_2w = static_cast<double>(plain.loop.latency_ms.size()) /
                           plain.loop.windowS();
    const double rate_1w = static_cast<double>(single.loop.latency_ms.size()) /
                           single.loop.windowS();
    out.add("serve.exec_ms_p50", median(traced.exec_ms), "ms");
    out.add("serve.wait_ms_p50", median(traced.wait_ms), "ms");
    out.add("serve.worker_busy_share",
            mean(traced.exec_ms) * static_cast<double>(traced.exec_ms.size()) /
                (static_cast<double>(kWorkers) * tl.windowS() * 1e3),
            "fraction");
    out.add("serve.scaling_2w", rate_1w > 0 ? rate_2w / rate_1w : 0, "ratio");
    out.add("serve.failed",
            static_cast<double>(plain.not_ok + traced.not_ok + single.not_ok), "count");
    out.add("serve.refused", 0, "count"); // blocking submit() never refuses

    SelfTimeTable table;
    table.latency_ms = lat;
    table.rows.push_back({"serve", "field", mean(traced.wait_ms)});
    table.rows.push_back({"rns", "model", modelKernelMs(delta, rns) / static_cast<double>(reqs)});
    table.close();
    finishTrace(out, table, "serve", median(plain.loop.latency_ms), median(tl.latency_ms),
                median(traced.wait_ms) > median(traced.exec_ms),
                "serve.wait_ms_p50 exceeds serve.exec_ms_p50");
    if (!precise)
        failAll(out, kImprecise);
    return out;
}

} // namespace arkbench
