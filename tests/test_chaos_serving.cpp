/**
 * @file
 * End-to-end chaos tests (docs/robustness.md): seeded fault schedules
 * against the full loopback serving stack, asserting the stack
 * RECOVERS — retry/reconnect reaches >= 99% eventual success on
 * retryable-only schedules with every successful response
 * BIT-IDENTICAL to the fault-free run; the conservation ledger holds
 * (every admitted request settles exactly one of ok / failed /
 * deadline-expired / refused-at-drain); the worker watchdog respawns
 * crashed and stuck workers; graceful drain refuses queued work with
 * the typed SERVER_SHUTDOWN surface.
 *
 * Where timing is asserted (deadlines, watchdog, drain) the tests run
 * SLEEP-FREE: a ManualServeClock supplies time and the WorkerStall
 * gate holds workers at a barrier the test releases — no sleeps, no
 * flaky races. The loopback retry test uses real sockets but an
 * injectable no-op sleeper, so backoff never waits wall-clock time.
 *
 * The schedule seed defaults to a fixed value and can be overridden
 * with ARK_CHAOS_SEED (digits) — CI runs one randomized-seed job and
 * logs the seed on failure so any break replays exactly.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/keygen.h"
#include "common/env.h"
#include "fault/fault.h"
#include "net/wire_client.h"
#include "net/wire_server.h"
#include "serve/clock.h"

namespace ark {
namespace {

/** The seeded schedule under test: fixed default, ARK_CHAOS_SEED
 *  (a u64) overrides — the randomized CI job sets it and echoes it. */
u64
chaosSeed()
{
    const char *env = envValue("ARK_CHAOS_SEED");
    if (env == nullptr)
        return 20250809;
    u64 v = 0;
    if (!parseU64(env, 0, UINT64_MAX, v)) {
        ADD_FAILURE() << "ARK_CHAOS_SEED must be an unsigned 64-bit "
                         "integer, got '"
                      << env << "'";
        return 20250809;
    }
    return v;
}

/** Disarm-on-exit guard so no test leaks an armed plane. */
struct ArmedPlane
{
    explicit ArmedPlane(const fault::FaultPlan &plan)
    {
        fault::FaultInjector::global().arm(plan);
    }
    ~ArmedPlane() { fault::FaultInjector::global().disarm(); }
};

/** Server-side stack: context, keys, workloads, inputs, BatchServer
 *  (+ optional WireServer on loopback). Mirrors test_net_serving. */
struct ChaosStack
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

    explicit ChaosStack(BatchServerConfig cfg = {}, bool wire = true)
    {
        unsetenv("ARK_BACKEND");
        unsetenv("ARK_THREADS");
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

        server = std::make_unique<BatchServer>(
            *ctx, *keys, *store, workloads, inputs, cfg);
        if (wire)
            net = std::make_unique<WireServer>(*server);
    }
};

/** The tenant's locally generated seeded key set for one workload. */
struct TenantKeys
{
    SecretKey sk;
    EvalKey mult;
    std::vector<std::pair<i64, EvalKey>> rotations;

    TenantKeys(const CkksContext &ctx, Rng &rng,
               const std::vector<i64> &amounts, u64 master_seed)
    {
        KeyGenerator keygen(ctx, rng);
        sk = keygen.secretKey();
        u64 seed = master_seed;
        mult = keygen.evkMultSeeded(sk, seed++);
        for (i64 r : amounts)
            rotations.emplace_back(
                r, keygen.evkRotationSeeded(sk, r, seed++));
    }
};

u64
uploadKeys(WireClient &client, const TenantKeys &tk)
{
    u64 resident = client.uploadMultiplicationKey(tk.mult);
    for (const auto &[r, key] : tk.rotations)
        resident = client.uploadRotationKey(r, key);
    return resident;
}

Ciphertext
encryptInput(const WireClient &client, const SecretKey &sk, Rng &rng)
{
    CkksEncoder encoder(client.context());
    CkksEncryptor encryptor(client.context(), rng);
    std::vector<Complex> msg(client.params().num_slots,
                             Complex(0.4, -0.2));
    return encryptor.encryptSymmetric(
        encoder.encode(msg, client.context().maxLevel()), sk);
}

/** Spin (yield, no sleep) until @p n workers sit at the stall gate. */
void
awaitStalled(size_t n)
{
    while (fault::FaultInjector::global().stalledCount() < n)
        std::this_thread::yield();
}

// -------------------------------------------------- retry / reconnect

TEST(ChaosServing, RetryableScheduleRecoversBitIdentical)
{
    const u64 seed = chaosSeed();
    std::printf("[chaos] ARK_CHAOS_SEED=%llu\n",
                static_cast<unsigned long long>(seed));
    RecordProperty("chaos_seed", static_cast<int>(seed % 1000000));

    BatchServerConfig cfg;
    cfg.workers = 2;
    cfg.max_sessions = 64; // reconnect may briefly overlap a dying
                           // session with its replacement
    ChaosStack s(cfg);
    WireClient client("127.0.0.1", s.net->port());
    client.openSession("tenant-chaos");
    const RemoteWorkload &wl = client.workloads()[0];
    Rng tenant_rng(4242);
    TenantKeys tk(client.context(), tenant_rng, wl.rotations, 9000);
    uploadKeys(client, tk);
    const Ciphertext input = encryptInput(client, tk.sk, tenant_rng);

    // Fault-free baseline: the bit-identity reference.
    const WireClient::SubmitOutcome base = client.submit(0, input);
    ASSERT_TRUE(base.ok) << base.error;
    const u64 base_checksum = base.checksum;

    // Retryable-only schedule: short I/O, small delays, and
    // connection resets — every one of these the client can out-retry
    // (resets via reconnect + session re-establish + key re-upload).
    // Worker sites stay DISARMED: nothing here is allowed to fail a
    // request terminally.
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.delay_us = 50;
    auto site = [](fault::Site x) { return static_cast<size_t>(x); };
    plan.permille[site(fault::Site::RecvShort)] = 30;
    plan.permille[site(fault::Site::SendShort)] = 30;
    plan.permille[site(fault::Site::RecvDelay)] = 10;
    plan.permille[site(fault::Site::SendDelay)] = 10;
    plan.permille[site(fault::Site::RecvReset)] = 3;
    plan.permille[site(fault::Site::SendReset)] = 3;
    ArmedPlane armed(plan);

    RetryPolicy pol;
    pol.max_attempts = 10;
    pol.jitter_seed = seed;
    u64 slept_ms = 0;
    pol.sleep_ms = [&slept_ms](u64 ms) { slept_ms += ms; };

    const size_t kRequests = 30;
    size_t ok = 0;
    for (size_t i = 0; i < kRequests; ++i) {
        try {
            const WireClient::SubmitOutcome out =
                client.submitWithRetry(0, input, pol);
            if (out.ok) {
                ok += 1;
                // Bit-identity THROUGH the chaos: a response that
                // survived short reads, delays, and resets must equal
                // the fault-free run exactly.
                EXPECT_EQ(out.checksum, base_checksum);
                EXPECT_EQ(ciphertextChecksum(out.output),
                          base_checksum);
            }
        } catch (const NetError &) {
            // counted as a failure below
        }
    }
    fault::FaultInjector::global().disarm();

    // >= 99% eventual success. On a retryable-only schedule with 10
    // attempts each, anything less means recovery is broken.
    EXPECT_GE(ok * 100, kRequests * 99)
        << "only " << ok << "/" << kRequests
        << " requests recovered (seed " << seed << ", "
        << client.reconnects() << " reconnects, backoff "
        << slept_ms << " ms simulated)";
    std::printf("[chaos] %zu/%zu ok, %zu reconnects, %llu ms "
                "simulated backoff\n",
                ok, kRequests, client.reconnects(),
                static_cast<unsigned long long>(slept_ms));

    // The plane actually did something, or this test proves nothing.
    auto &fi = fault::FaultInjector::global();
    u64 total_injected = 0;
    for (size_t i = 0; i < fault::kSiteCount; ++i)
        total_injected += fi.injected(static_cast<fault::Site>(i));
    EXPECT_GT(total_injected, 0u);

    // The stack is healthy after the storm.
    const WireClient::SubmitOutcome after = client.submit(0, input);
    EXPECT_TRUE(after.ok) << after.error;
    EXPECT_EQ(after.checksum, base_checksum);
    client.closeSession();
}

TEST(ChaosServing, ReconnectReestablishesSessionAndKeys)
{
    ChaosStack s;
    WireClient client("127.0.0.1", s.net->port());
    client.openSession("tenant-reconnect");
    const RemoteWorkload &wl = client.workloads()[0];
    Rng rng(1717);
    TenantKeys tk(client.context(), rng, wl.rotations, 9100);
    uploadKeys(client, tk);
    const Ciphertext input = encryptInput(client, tk.sk, rng);

    const WireClient::SubmitOutcome before = client.submit(0, input);
    ASSERT_TRUE(before.ok) << before.error;

    // Kill and rebuild the whole session. The server dropped this
    // tenant's uploaded keys with the connection, so success after
    // reconnect proves the client replayed its key uploads.
    client.reconnect();
    EXPECT_EQ(client.reconnects(), 1u);
    EXPECT_TRUE(client.sessionOpen());

    const WireClient::SubmitOutcome after = client.submit(0, input);
    ASSERT_TRUE(after.ok) << after.error;
    EXPECT_EQ(after.checksum, before.checksum);
    client.closeSession();
}

TEST(ChaosServing, PingAndDeadlineSubmit2RoundTrip)
{
    ChaosStack s;
    WireClient client("127.0.0.1", s.net->port());

    // §5.17 PING: pre-session liveness, nonce echoed, uptime sane.
    const WireClient::PingResult pr = client.ping();
    EXPECT_GE(pr.rtt_ms, 0.0);
    const WireClient::PingResult pr2 = client.ping();
    EXPECT_NE(pr.nonce, pr2.nonce);
    EXPECT_GE(pr2.uptime_ms, pr.uptime_ms);

    // §5.19 SUBMIT2: a generous deadline and a client-chosen request
    // id round-trip; the RESPONSE echoes OUR id.
    client.openSession("tenant-sub2");
    const RemoteWorkload &wl = client.workloads()[0];
    Rng rng(555);
    TenantKeys tk(client.context(), rng, wl.rotations, 9200);
    uploadKeys(client, tk);
    const Ciphertext input = encryptInput(client, tk.sk, rng);
    const u64 my_id = (1ull << 63) | 424242;
    const WireClient::SubmitOutcome out =
        client.submit(0, input, /*deadline_ms=*/60000, my_id);
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.request_id, my_id);

    // And the plain frozen SUBMIT still works on the same session.
    const WireClient::SubmitOutcome plain = client.submit(0, input);
    EXPECT_TRUE(plain.ok) << plain.error;
    EXPECT_EQ(plain.checksum, out.checksum);
    client.closeSession();
}

TEST(ChaosServing, OpTimeoutBoundsAStalledSubmit)
{
    BatchServerConfig cfg;
    cfg.workers = 1;
    ChaosStack s(cfg);
    WireClient client("127.0.0.1", s.net->port());
    client.openSession("tenant-timeout");
    const RemoteWorkload &wl = client.workloads()[0];
    Rng rng(1919);
    TenantKeys tk(client.context(), rng, wl.rotations, 9300);
    uploadKeys(client, tk);
    const Ciphertext input = encryptInput(client, tk.sk, rng);

    // The worker holds the job at the stall gate with no real-time
    // cap, so no RESPONSE comes: only the client's per-op deadline
    // can end the single-attempt submit.
    fault::FaultPlan plan;
    plan.permille[static_cast<size_t>(fault::Site::WorkerStall)] =
        1000;
    plan.stall_ms = 0;
    ArmedPlane armed(plan);
    client.setOpTimeoutMs(200);
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_THROW((void)client.submit(0, input), NetTimeout);
    const double waited_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
    EXPECT_LT(waited_s, 5.0);
    awaitStalled(1); // the server did receive the request
    fault::FaultInjector::global().releaseStalls();
}

// ------------------------------------------- sleep-free server chaos

TEST(ChaosServing, ExpiredDeadlineDropsUnstartedSleepFree)
{
    ManualServeClock clock;
    BatchServerConfig cfg;
    cfg.workers = 1;
    cfg.clock = &clock;
    ChaosStack s(cfg, /*wire=*/false);

    // Hold the single worker at the stall gate on job A...
    fault::FaultPlan plan;
    plan.permille[static_cast<size_t>(fault::Site::WorkerStall)] =
        1000;
    ArmedPlane armed(plan);
    std::future<ServeResult> fa = s.server->submit(0);
    awaitStalled(1);

    // ...queue job B with a 1 ms deadline, then let 10 ms pass on the
    // manual clock. No wall time passes at all.
    std::future<ServeResult> fb;
    ASSERT_EQ(s.server->trySubmitRemote(
                  0, std::make_shared<Ciphertext>(s.inputs[0]),
                  nullptr, fb, 0,
                  clock.nowMicros() + 1000),
              AdmitResult::Admitted);
    clock.advanceMs(10);

    // Release: A executes (admitted pre-deadline era, no deadline);
    // B is popped PAST its deadline and must settle typed, unexecuted.
    fault::FaultInjector::global().disarm();
    const ServeResult ra = fa.get();
    EXPECT_TRUE(ra.ok) << ra.error;
    const ServeResult rb = fb.get();
    EXPECT_FALSE(rb.ok);
    EXPECT_EQ(rb.error_kind, ServeErrorKind::DeadlineExceeded);
    EXPECT_EQ(rb.he_ops, 0u); // never executed

    const ServeReport rep = s.server->drain();
    EXPECT_EQ(rep.deadline_expired, 1u);
    EXPECT_EQ(rep.requests, 1u); // only A ran
}

TEST(ChaosServing, WatchdogRespawnsCrashedAndStuckWorkersSleepFree)
{
    ManualServeClock clock;
    BatchServerConfig cfg;
    cfg.workers = 1;
    cfg.clock = &clock;
    cfg.worker_stuck_ms = 50;
    ChaosStack s(cfg, /*wire=*/false);
    ASSERT_EQ(s.server->workers(), 1u);

    // Crash: the worker dies after settling its job as failed.
    {
        fault::FaultPlan plan;
        plan.permille[static_cast<size_t>(
            fault::Site::WorkerCrash)] = 1000;
        ArmedPlane armed(plan);
        std::future<ServeResult> f = s.server->submit(0);
        const ServeResult r = f.get();
        EXPECT_FALSE(r.ok);
        EXPECT_NE(r.error.find("injected worker crash"),
                  std::string::npos)
            << r.error;
    }
    // The sweep notices the dead thread and replaces it. The future
    // settles BEFORE the thread finishes unwinding, so spin (yield,
    // no sleep) until the sweep observes the exit.
    while (s.server->checkWorkers() == 0)
        std::this_thread::yield();
    EXPECT_EQ(s.server->respawns(), 1u);
    EXPECT_EQ(s.server->workers(), 1u);

    // Stuck: hold the replacement at the stall gate, advance the
    // clock past worker_stuck_ms, sweep — a replacement spawns while
    // the straggler is still held. Queued work keeps flowing.
    {
        fault::FaultPlan plan;
        plan.permille[static_cast<size_t>(
            fault::Site::WorkerStall)] = 1000;
        ArmedPlane armed(plan);
        std::future<ServeResult> fstuck = s.server->submit(0);
        awaitStalled(1);
        clock.advanceMs(60); // > worker_stuck_ms, zero wall time
        EXPECT_EQ(s.server->checkWorkers(), 1u);
        EXPECT_EQ(s.server->respawns(), 2u);
        EXPECT_EQ(s.server->workers(), 1u); // live = the replacement

        // The replacement serves traffic while the straggler is
        // stuck — but it would stall too; release first, then both
        // the stuck job and a fresh one must complete.
        fault::FaultInjector::global().disarm();
        const ServeResult rs = fstuck.get();
        EXPECT_TRUE(rs.ok) << rs.error;
    }
    std::future<ServeResult> f2 = s.server->submit(0);
    const ServeResult r2 = f2.get();
    EXPECT_TRUE(r2.ok) << r2.error;
    (void)s.server->drain();
}

TEST(ChaosServing, GracefulDrainRefusesQueuedTyped)
{
    ManualServeClock clock;
    BatchServerConfig cfg;
    cfg.workers = 1;
    cfg.clock = &clock;
    ChaosStack s(cfg, /*wire=*/false);

    // Worker held on A; B and C sit queued behind it.
    fault::FaultPlan plan;
    plan.permille[static_cast<size_t>(fault::Site::WorkerStall)] =
        1000;
    ArmedPlane armed(plan);
    std::future<ServeResult> fa = s.server->submit(0);
    awaitStalled(1);
    std::future<ServeResult> fb = s.server->submit(0);
    std::future<ServeResult> fc = s.server->submit(0);

    // Graceful drain: releases the stall (shutdown aborts the gate),
    // lets the IN-FLIGHT job finish, refuses the QUEUED ones typed.
    s.server->shutdownGraceful();

    const ServeResult ra = fa.get();
    EXPECT_TRUE(ra.ok) << ra.error;
    for (auto *f : {&fb, &fc}) {
        const ServeResult r = f->get();
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.error_kind, ServeErrorKind::DrainRefused);
        EXPECT_EQ(r.he_ops, 0u); // never started
    }
    const ServeReport rep = s.server->drain();
    EXPECT_EQ(rep.requests, 1u);
    EXPECT_EQ(rep.drain_refused, 2u);
}

TEST(ChaosServing, LedgerConservesEveryAdmittedRequest)
{
    // One run mixing every settlement path, sleep-free: ok, deadline
    // expiry, injected crash (failed), and plain ok again after a
    // watchdog respawn. Every admitted future settles exactly once;
    // the tallies add up to the admitted count.
    ManualServeClock clock;
    BatchServerConfig cfg;
    cfg.workers = 1;
    cfg.clock = &clock;
    ChaosStack s(cfg, /*wire=*/false);

    size_t admitted = 0, ok = 0, failed = 0, deadline = 0, drained = 0;
    std::vector<std::future<ServeResult>> futs;

    // Phase 1: stall the worker on A, expire B behind it.
    {
        fault::FaultPlan plan;
        plan.permille[static_cast<size_t>(
            fault::Site::WorkerStall)] = 1000;
        ArmedPlane armed(plan);
        futs.push_back(s.server->submit(0));
        admitted += 1;
        awaitStalled(1);
        std::future<ServeResult> fb;
        ASSERT_EQ(s.server->trySubmitRemote(
                      0, std::make_shared<Ciphertext>(s.inputs[0]),
                      nullptr, fb, 0, clock.nowMicros() + 500),
                  AdmitResult::Admitted);
        futs.push_back(std::move(fb));
        admitted += 1;
        clock.advanceMs(5);
        fault::FaultInjector::global().disarm();
        for (auto &f : futs)
            (void)f.wait();
    }

    // Phase 2: crash the worker on C, respawn, then serve D cleanly.
    {
        fault::FaultPlan plan;
        plan.permille[static_cast<size_t>(
            fault::Site::WorkerCrash)] = 1000;
        ArmedPlane armed(plan);
        futs.push_back(s.server->submit(0));
        admitted += 1;
        (void)futs.back().wait();
    }
    // Spin until the sweep sees the crashed thread's exit (the
    // future settles before the thread unwinds).
    while (s.server->checkWorkers() == 0)
        std::this_thread::yield();
    futs.push_back(s.server->submit(0));
    admitted += 1;

    for (auto &f : futs) {
        const ServeResult r = f.get();
        if (r.ok)
            ok += 1;
        else if (r.error_kind == ServeErrorKind::DeadlineExceeded)
            deadline += 1;
        else if (r.error_kind == ServeErrorKind::DrainRefused)
            drained += 1;
        else
            failed += 1;
    }
    EXPECT_EQ(ok, 2u);       // A and D
    EXPECT_EQ(deadline, 1u); // B
    EXPECT_EQ(failed, 1u);   // C (injected crash)
    EXPECT_EQ(drained, 0u);
    EXPECT_EQ(ok + failed + deadline + drained, admitted);

    const ServeReport rep = s.server->drain();
    EXPECT_EQ(rep.requests, 3u); // A, C, D executed/settled in-band
    EXPECT_EQ(rep.failed, 1u);
    EXPECT_EQ(rep.deadline_expired, 1u);
    // Only A and D executed: the crashed C books its e2e time but no
    // execute-time sample.
    EXPECT_EQ(rep.latency.count, ok);
    EXPECT_EQ(rep.e2e.count, rep.requests);
}

} // namespace
} // namespace ark
