/**
 * @file
 * Chaos demo: the serving stack surviving a seeded fault storm.
 *
 * Builds the full loopback stack (BatchServer + WireServer on
 * 127.0.0.1), takes a fault-free baseline, then arms the
 * fault-injection plane (docs/robustness.md) with a retryable-only
 * schedule — short reads/writes, injected delays, connection resets —
 * and pushes a batch of requests through WireClient::submitWithRetry.
 *
 * What to watch for in the output:
 *   - every recovered response is BIT-IDENTICAL to the baseline
 *     (workload evaluation is pure, so retries are idempotent);
 *   - resets force full reconnects: session re-open plus eval-key
 *     re-upload, all inside the retry loop;
 *   - the per-site injection table shows the storm actually happened.
 *
 * Usage:  chaos_demo [SEED]
 * The seed defaults to ARK_CHAOS_SEED (digits) or 20250809. Same
 * seed, same schedule, same outcome — rerun to replay exactly.
 */

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/keygen.h"
#include "common/env.h"
#include "fault/fault.h"
#include "net/wire_client.h"
#include "net/wire_server.h"

namespace {

using namespace ark;

ark::u64
pickSeed(int argc, char **argv)
{
    const char *src = argc > 1 ? argv[1] : envValue("ARK_CHAOS_SEED");
    if (src == nullptr || *src == '\0')
        return 20250809;
    ark::u64 v = 0;
    if (!parseU64(src, 0, UINT64_MAX, v)) {
        std::fprintf(stderr,
                     "seed must be an unsigned 64-bit integer, got '%s'\n",
                     src);
        std::exit(2);
    }
    return v;
}

/** Server side of the loopback stack, mirroring the serving tests. */
struct ServerStack
{
    std::unique_ptr<CkksContext> ctx;
    Rng rng{777};
    std::unique_ptr<KeyGenerator> keygen;
    SecretKey sk;
    std::unique_ptr<KeyCache> keys;
    std::unique_ptr<CkksEncoder> encoder;
    std::unique_ptr<PlaintextStore> store;
    std::vector<ServeWorkload> workloads;
    std::vector<Ciphertext> inputs;
    std::unique_ptr<BatchServer> server;
    std::unique_ptr<WireServer> net;

    ServerStack()
    {
        CkksParams p = CkksParams::testTiny();
        p.backend = BackendKind::Scalar;
        p.backend_threads = 2;
        ctx = std::make_unique<CkksContext>(p);
        keygen = std::make_unique<KeyGenerator>(*ctx, rng);
        sk = keygen->secretKey();
        keys = std::make_unique<KeyCache>(*keygen, sk, ctx->degree());
        encoder = std::make_unique<CkksEncoder>(*ctx);
        CkksEncryptor encryptor(*ctx, rng);

        store = std::make_unique<PlaintextStore>(*ctx,
                                                 PlaintextMode::OFLimb);
        std::vector<Complex> m(p.num_slots);
        for (size_t i = 0; i < m.size(); ++i)
            m[i] = Complex(0.6 + 0.001 * static_cast<double>(i % 11),
                           0.02);
        store->insert(encoder->encode(m, ctx->maxLevel()));

        LowerOptions opt;
        opt.max_ops = 20;
        workloads = standardServingMix(p, opt);

        std::vector<Complex> in(p.num_slots, Complex(0.5, 0.1));
        inputs.push_back(encryptor.encryptSymmetric(
            encoder->encode(in, ctx->maxLevel()), sk));

        BatchServerConfig cfg;
        cfg.workers = 2;
        cfg.max_sessions = 64; // reconnects briefly overlap sessions
        server = std::make_unique<BatchServer>(
            *ctx, *keys, *store, workloads, inputs, cfg);
        net = std::make_unique<WireServer>(*server);
    }
};

int
run(ark::u64 seed)
{
    std::printf("=== chaos_demo (seed %" PRIu64 ") ===\n\n", seed);

    ServerStack s;
    std::printf("loopback server up on 127.0.0.1:%u, %zu workloads\n",
                unsigned(s.net->port()), s.workloads.size());

    WireClient client("127.0.0.1", s.net->port(), "chaos-demo");
    client.openSession("tenant-demo");
    const RemoteWorkload &wl = client.workloads()[0];
    Rng tenant_rng(4242);
    KeyGenerator tenant_keygen(client.context(), tenant_rng);
    SecretKey tenant_sk = tenant_keygen.secretKey();
    ark::u64 kseed = 9000;
    client.uploadMultiplicationKey(
        tenant_keygen.evkMultSeeded(tenant_sk, kseed++));
    for (i64 r : wl.rotations)
        client.uploadRotationKey(
            r, tenant_keygen.evkRotationSeeded(tenant_sk, r, kseed++));

    CkksEncoder tenant_encoder(client.context());
    CkksEncryptor tenant_encryptor(client.context(), tenant_rng);
    std::vector<Complex> msg(client.params().num_slots,
                             Complex(0.4, -0.2));
    const Ciphertext input = tenant_encryptor.encryptSymmetric(
        tenant_encoder.encode(msg, client.context().maxLevel()),
        tenant_sk);

    // Fault-free baseline: the bit-identity reference.
    const WireClient::SubmitOutcome base = client.submit(0, input);
    if (!base.ok) {
        std::fprintf(stderr, "baseline submit failed: %s\n",
                     base.error.c_str());
        return 1;
    }
    std::printf("baseline response checksum %016" PRIx64 "\n\n",
                base.checksum);

    // Retryable-only storm: everything here the client can out-retry.
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.delay_us = 50;
    auto site = [](fault::Site x) { return static_cast<size_t>(x); };
    plan.permille[site(fault::Site::RecvShort)] = 30;
    plan.permille[site(fault::Site::SendShort)] = 30;
    plan.permille[site(fault::Site::RecvDelay)] = 10;
    plan.permille[site(fault::Site::SendDelay)] = 10;
    plan.permille[site(fault::Site::RecvReset)] = 15;
    plan.permille[site(fault::Site::SendReset)] = 15;
    fault::FaultInjector::global().arm(plan);
    std::printf("fault plane armed: short I/O 3%%, delays 1%%, "
                "resets 1.5%% per call\n");

    RetryPolicy pol;
    pol.max_attempts = 10;
    pol.base_backoff_ms = 1; // keep the demo snappy
    pol.max_backoff_ms = 20;
    pol.jitter_seed = seed;

    const size_t kRequests = 30;
    size_t ok = 0, mismatched = 0, lost = 0;
    for (size_t i = 0; i < kRequests; ++i) {
        try {
            const WireClient::SubmitOutcome out =
                client.submitWithRetry(0, input, pol);
            if (out.ok) {
                ok += 1;
                if (out.checksum != base.checksum)
                    mismatched += 1;
            } else {
                lost += 1;
            }
        } catch (const NetError &e) {
            lost += 1;
            std::printf("  request %zu lost to transport: %s\n", i,
                        e.what());
        }
    }
    fault::FaultInjector::global().disarm();

    std::printf("\n%zu/%zu requests recovered, %zu lost, "
                "%zu reconnects, %zu checksum mismatches\n",
                ok, kRequests, lost, client.reconnects(), mismatched);

    auto &fi = fault::FaultInjector::global();
    std::printf("\n%-14s %10s %10s\n", "site", "calls", "injected");
    for (size_t i = 0; i < fault::kSiteCount; ++i) {
        const fault::Site st = static_cast<fault::Site>(i);
        if (fi.calls(st) == 0)
            continue;
        std::printf("%-14s %10" PRIu64 " %10" PRIu64 "\n",
                    fault::siteName(st), fi.calls(st), fi.injected(st));
    }

    // Post-storm health check on the same connection.
    const WireClient::SubmitOutcome after = client.submit(0, input);
    std::printf("\npost-storm submit: %s (checksum %s baseline)\n",
                after.ok ? "ok" : "FAILED",
                after.ok && after.checksum == base.checksum
                    ? "matches"
                    : "DIFFERS FROM");
    client.closeSession();

    const ServeReport rep = s.server->drain();
    std::printf("server drain: %zu executed, %zu failed, %zu shed, "
                "%zu deadline-expired\n",
                rep.requests, rep.failed, rep.shed,
                rep.deadline_expired);

    const bool healthy = ok == kRequests && mismatched == 0 &&
                         after.ok && after.checksum == base.checksum;
    std::printf("\n%s\n", healthy
                              ? "RECOVERED: full storm absorbed, all "
                                "responses bit-identical"
                              : "DEGRADED: see counts above");
    return healthy ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && (std::strcmp(argv[1], "-h") == 0 ||
                     std::strcmp(argv[1], "--help") == 0)) {
        std::fputs("usage: chaos_demo [SEED]\n"
                   "Seeded fault storm against the loopback serving "
                   "stack;\nsame seed replays the same schedule "
                   "(docs/robustness.md).\n",
                   stdout);
        return 0;
    }
    try {
        return run(pickSeed(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "chaos_demo failed: %s\n", e.what());
        return 1;
    }
}
