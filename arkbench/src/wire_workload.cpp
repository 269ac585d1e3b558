/**
 * @file
 * wire: one WireClient and one tenant session, one request in flight,
 * against a 1-worker BatchServer behind a loopback WireServer at
 * testBoot. Each request ships a full-level ciphertext each way and
 * runs a single AddScalar, so serialization, the socket and the
 * session hand-off dominate and the kernels are nearly idle. It uses
 * serve differently from the serve workload: remote input, tenant
 * uploaded keys, no queue.
 */

#include <sched.h>

#include "ckks/encryptor.h"
#include "layers.h"
#include "net/wire_client.h"
#include "net/wire_server.h"
#include "workloads.h"

namespace arkbench {

using namespace ark;

namespace {

constexpr size_t kInputs = 4;      ///< distinct inputs, cycled per request
constexpr size_t kSetups = 11;     ///< set-ups per end-to-end run
constexpr double kScalar = 0.25;   ///< the request's AddScalar operand
/** Precision floor of m + scalar after one encrypted AddScalar. */
constexpr double kMinWireBits = 25.0;
constexpr const char *kImprecise = "wire: precision of m + scalar below the floor";

CkksParams
wireParams()
{
    CkksParams p = CkksParams::testBoot();
    p.backend = BackendKind::Simd;
    return p;
}

/**
 * Server, loopback front-end and one tenant client. Declaration order
 * is teardown order reversed: the client closes before the front-end
 * stops and the server shuts down.
 */
struct WireState
{
    // Server side.
    CkksContext ctx{wireParams()};
    CkksEncoder encoder{ctx};
    Rng rng;
    KeyGenerator keygen{ctx, rng};
    SecretKey sk = keygen.secretKey();
    KeyCache keys{keygen, sk, ctx.degree()};
    CkksEncryptor encryptor{ctx, rng};
    CkksEvaluator eval{ctx};
    PlaintextStore store{ctx, PlaintextMode::OFLimb};
    std::unique_ptr<BatchServer> server;
    std::unique_ptr<WireServer> net;
    // Tenant side: its own keys, uploaded; its own encrypted inputs.
    std::unique_ptr<WireClient> client;
    Rng trng;
    std::unique_ptr<KeyGenerator> tkeygen;
    SecretKey tsk;
    std::vector<Ciphertext> inputs;
    std::vector<u64> ref;
    double precision_bits = 64;

    explicit WireState(u64 seed) : rng(seed), trng(seed ^ 0x7E4A47)
    {
        const int top = ctx.maxLevel();
        const size_t slots = ctx.params().num_slots;
        ServeWorkload add;
        add.name = "add_scalar";
        add.ops.push_back({ServeOpKind::AddScalar, 0, 0, kScalar});
        std::vector<Ciphertext> templates;
        templates.push_back(encryptor.encryptSymmetric(
            encoder.encode(seededMessage(seed, slots, 0.5), top), sk));
        BatchServerConfig cfg;
        cfg.workers = 1;
        cfg.queue_capacity = 4;
        cfg.schedule = SchedulePolicy::SourceOrder;
        cfg.shards = 1;
        cfg.admission.enabled = false;
        server = std::make_unique<BatchServer>(ctx, keys, store,
                                               std::vector<ServeWorkload>{add},
                                               std::move(templates), cfg);
        net = std::make_unique<WireServer>(*server);

        client = std::make_unique<WireClient>("127.0.0.1", net->port(), "arkbench");
        client->openSession("arkbench-tenant");
        const CkksContext &tctx = client->context();
        tkeygen = std::make_unique<KeyGenerator>(tctx, trng);
        tsk = tkeygen->secretKey();
        client->uploadMultiplicationKey(tkeygen->evkMultSeeded(tsk, seed ^ 0x5EED));

        CkksEncoder tenc(tctx);
        CkksEncryptor tencr(tctx, trng);
        CkksDecryptor tdec(tctx, tsk);
        CkksEvaluator teval(tctx);
        for (size_t k = 0; k < kInputs; ++k) {
            const Slots m = seededMessage(seed * 41 + k, slots, 0.5);
            inputs.push_back(tencr.encryptSymmetric(tenc.encode(m, top), tsk));
            inputs.back().slots = slots;
            const Ciphertext want = teval.addScalar(inputs.back(), kScalar);
            ref.push_back(ciphertextChecksum(want));
            Slots expect = m;
            for (auto &x : expect)
                x += kScalar;
            precision_bits = std::min(
                precision_bits,
                precisionBits(tenc.decode(tdec.decrypt(want), slots), expect));
        }
    }

    ~WireState()
    {
        try {
            client->closeSession();
        } catch (const NetError &) {
            // The session died mid-run; that run has already failed.
        }
        client.reset();
        net->stop();
        server->shutdown();
    }
};

/**
 * Pin the calling thread, and so every thread it starts afterwards, to
 * the last CPU it may run on; returns that CPU, or -1 when pinning
 * fails. With one request in flight the client, session and worker
 * threads run one after another, so one CPU loses no parallelism, and
 * their hand-offs become context switches instead of wake-ups of idle
 * CPUs. On a virtual machine those wake-ups follow the host's load:
 * on a 4-vCPU guest, unpinned round trips had a p99 of 16-21 ms
 * against 11-13 ms pinned, in interleaved runs.
 */
int
pinToOneCpu()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return -1;
    int cpu = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set))
            cpu = c;
    if (cpu < 0)
        return -1;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

bool
retryable(WireCode c)
{
    return c == WireCode::QueueFull || c == WireCode::Shed ||
           c == WireCode::DeadlineExceeded;
}

/**
 * Every request is submitted once. With admission off, the fault plane
 * disarmed and one request in flight, nothing should be refused or
 * lost; any refusal, execution failure or transport error counts as a
 * failed request, and a transport error ends the loop (the session is
 * gone).
 */
struct WireLoop
{
    LoopStats loop;
    std::vector<double> exec_ms;     ///< SubmitOutcome::latency_ms
    std::vector<double> overhead_ms; ///< round trip minus exec
    u64 refused = 0;    ///< retryable refusals
    u64 net_errors = 0; ///< transport errors
    u64 not_ok = 0;     ///< outcomes that ran and failed
};

WireLoop
wireLoop(WireState &s, double seconds, SpanLog &log, u64 &next_id)
{
    WireLoop o{LoopStats(seconds), {}, {}, 0, 0, 0};
    size_t k = 0;
    while (o.loop.open()) {
        const size_t i = k++ % kInputs;
        const u64 id = next_id++;
        const auto t0 = Clock::now();
        WireClient::SubmitOutcome r;
        try {
            r = s.client->submit(0, s.inputs[i]);
        } catch (const NetError &) {
            ++o.net_errors;
            o.loop.finish(t0, Clock::now(), false);
            break;
        }
        const auto t1 = Clock::now();
        log.add("wire.submit", id, t0, t1);
        const bool ok = r.ok && r.checksum == s.ref[i] && r.has_output &&
                        ciphertextChecksum(r.output) == s.ref[i];
        log.add("bench.verify", id, t1, Clock::now());
        if (!r.ok)
            ++(retryable(r.code) ? o.refused : o.not_ok);
        if (o.loop.finish(t0, t1, ok)) {
            o.exec_ms.push_back(r.latency_ms);
            o.overhead_ms.push_back(msBetween(t0, t1) - r.latency_ms);
        }
    }
    return o;
}

} // namespace

RunResult
runWire(const Options &opt, SpanLog &log)
{
    RunResult out;
    // Client thread, session thread and the worker, all on one CPU;
    // the session thread blocks while the worker runs.
    out.threads = 3;
    const int cpu = pinToOneCpu();
    out.notes.push_back(cpu >= 0 ? "wire: every thread pinned to cpu " + std::to_string(cpu)
                                 : std::string("wire: pinning to one cpu failed; unpinned"));
    std::vector<double> setup_s;
    auto s = setUpRepeated<WireState>(opt.trace ? 1 : kSetups, setup_s,
                                      [&] { return std::make_unique<WireState>(opt.seed); });
    const bool precise = s->precision_bits >= kMinWireBits;
    u64 next_id = 1;
    book(out, wireLoop(*s, kWarmupS, log, next_id).loop);

    if (!opt.trace) {
        const WireLoop o = wireLoop(*s, opt.seconds, log, next_id);
        addEndToEnd(out, o.loop, setup_s, s->precision_bits, precise);
        if (!precise)
            failAll(out, kImprecise);
        return out;
    }

    const WireLoop plain = wireLoop(*s, opt.seconds / 2, log, next_id);
    log.setEnabled(true);
    const KernelStats before = s->ctx.backend().stats();
    const WireLoop traced = wireLoop(*s, opt.seconds / 2, log, next_id);
    const KernelStats delta = statsDelta(s->ctx.backend().stats(), before);
    book(out, plain.loop);
    book(out, traced.loop);
    const LoopStats &tl = traced.loop;
    const u64 reqs = tl.attempted;
    const double lat = mean(tl.latency_ms);

    const RnsProbe rns = probeRns(s->ctx, s->keys.multiplication(), log);
    addRnsMetrics(out, rns, delta, reqs, lat);
    const int top = s->ctx.maxLevel();
    const Slots m = seededMessage(opt.seed ^ 0xC0DE, s->ctx.params().num_slots, 0.5);
    Ciphertext fresh = s->encryptor.encryptSymmetric(s->encoder.encode(m, top), s->sk);
    fresh.slots = m.size();
    addCkksMetrics(out, probeCkks(s->eval, fresh, s->encoder.encode(m, top), s->keys, log),
                   1.0);

    // Each request runs each codec twice: the client writes the input
    // and reads the output, the server reads the input and writes the
    // output.
    const Ciphertext &ct = s->inputs[0];
    std::vector<u8> bytes;
    auto t0 = Clock::now();
    const double write_ms = medianCallMs(
        [&] {
            ByteWriter w;
            writeCiphertext(w, ct);
            bytes = w.take();
        },
        40, 5);
    const double read_ms = medianCallMs(
        [&] {
            ByteReader r(bytes);
            (void)readCiphertext(r, s->client->context());
        },
        40, 5);
    log.add("probe.wire.codec", 0, t0, Clock::now());
    const double codec_ms = 2 * (write_ms + read_ms);
    // One SUBMIT body: workload index plus the ciphertext, under the
    // fixed frame header.
    const double frame_bytes =
        static_cast<double>(kWireHeaderBytes + sizeof(u32) + bytes.size());
    out.add("wire.write_ct_ms", write_ms, "ms");
    out.add("wire.read_ct_ms", read_ms, "ms");
    out.add("wire.frame_kib", frame_bytes / 1024.0, "KiB");

    const double overhead_p50 = median(traced.overhead_ms);
    out.add("net.overhead_ms_p50", overhead_p50, "ms");
    out.add("net.unattributed_ms", overhead_p50 - codec_ms, "ms");
    // What a retrying client (WireClient::submitWithRetry) would have
    // retried: refusals and transport errors. The benchmark retries
    // nothing and never reconnects, so both read 0 on a sound run.
    out.add("net.retries",
            static_cast<double>(plain.refused + traced.refused + plain.net_errors +
                                traced.net_errors),
            "count");
    out.add("net.reconnects", static_cast<double>(s->client->reconnects()), "count");

    out.add("serve.exec_ms_p50", median(traced.exec_ms), "ms");
    out.add("serve.worker_busy_share",
            mean(traced.exec_ms) * static_cast<double>(traced.exec_ms.size()) /
                (tl.windowS() * 1e3),
            "fraction");
    out.add("serve.failed", static_cast<double>(plain.not_ok + traced.not_ok), "count");
    out.add("serve.refused", static_cast<double>(plain.refused + traced.refused), "count");

    SelfTimeTable table;
    table.latency_ms = lat;
    const double kernels = modelKernelMs(delta, rns) / static_cast<double>(reqs);
    table.rows.push_back({"wire", "model", codec_ms});
    table.rows.push_back({"net", "remainder", mean(traced.overhead_ms) - codec_ms});
    table.rows.push_back({"rns", "model", kernels});
    table.close();
    const double wire_net = table.rowMs("wire") + table.rowMs("net");
    finishTrace(out, table, "wire", median(plain.loop.latency_ms), median(tl.latency_ms),
                wire_net > table.rowMs("rns") && wire_net > table.rowMs("unattributed"),
                "wire + net is the largest share");
    if (!precise)
        failAll(out, kImprecise);
    return out;
}

} // namespace arkbench
