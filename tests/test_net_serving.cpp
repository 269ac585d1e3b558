/**
 * @file
 * Loopback client <-> server tests over the wire protocol: end-to-end
 * encrypt -> submit -> decrypt with results BIT-IDENTICAL to
 * in-process execution of the same request (same uploaded tenant keys,
 * same input ciphertext), on both the scalar and simd kernel
 * backends; per-tenant session and key-upload flow; and the §7 typed
 * error surface (UNKNOWN_SESSION, SESSION_LIMIT, MISSING_KEY,
 * UNKNOWN_WORKLOAD, SERVER_SHUTDOWN, BAD_FIELD on a non-canonical
 * residue, protocol violations, the retired PUBLIC_KEY and PLAINTEXT
 * frames), per docs/wire_format.md and docs/serving.md.
 */

#include <cmath>
#include <cstdlib>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/keygen.h"
#include "net/wire_client.h"
#include "net/wire_server.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace ark {
namespace {

/** Server-side stack: context, its own keys, workloads, inputs, and
 *  the BatchServer + WireServer pair on an ephemeral loopback port. */
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

    explicit ServerStack(BackendKind kind, BatchServerConfig cfg = {})
    {
        unsetenv("ARK_BACKEND");
        unsetenv("ARK_THREADS");
        CkksParams p = CkksParams::testTiny();
        p.backend = kind;
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
        net = std::make_unique<WireServer>(*server);
    }
};

/** The tenant's locally generated key set for one workload: seeded
 *  evks (mult + every referenced rotation), per-key seeds derived
 *  from a master seed. */
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

/** Upload @p tk through @p client; returns the server-reported
 *  resident tenant-key bytes after the last upload. */
u64
uploadKeys(WireClient &client, const TenantKeys &tk)
{
    u64 resident = client.uploadMultiplicationKey(tk.mult);
    for (const auto &[r, key] : tk.rotations)
        resident = client.uploadRotationKey(r, key);
    return resident;
}

void
loopbackMatchesInProcess(BackendKind kind)
{
    ServerStack s(kind);
    WireClient client("127.0.0.1", s.net->port());

    // The hello exchange delivered the parameter set; the client's
    // rebuilt context must agree with the server's byte for byte as
    // far as the wire cares (§3 hash binding).
    ASSERT_EQ(paramsHash(client.params()),
              paramsHash(s.ctx->params()));
    ASSERT_EQ(client.workloads().size(), s.workloads.size());

    client.openSession("tenant-parity");

    // The tenant generates its own secret + seeded evks against the
    // received params, uploads them, and encrypts its own input.
    const size_t widx = 0;
    const RemoteWorkload &wl = client.workloads()[widx];
    Rng tenant_rng(4242);
    TenantKeys tk(client.context(), tenant_rng, wl.rotations, 9000);
    EXPECT_GT(uploadKeys(client, tk), 0u);

    CkksEncoder encoder(client.context());
    CkksEncryptor encryptor(client.context(), tenant_rng);
    std::vector<Complex> msg(client.params().num_slots,
                             Complex(0.4, -0.2));
    const Ciphertext input = encryptor.encryptSymmetric(
        encoder.encode(msg, client.context().maxLevel()), tk.sk);

    // Remote path: over the socket.
    const WireClient::SubmitOutcome remote =
        client.submit(widx, input);
    ASSERT_TRUE(remote.ok) << remote.error;
    ASSERT_TRUE(remote.has_output);
    // The RESPONSE's checksum describes the ciphertext it carries.
    EXPECT_EQ(ciphertextChecksum(remote.output), remote.checksum);

    // In-process path: the same uploaded key material and the same
    // input ciphertext, submitted directly. Execution is pure, so the
    // two must be bit-identical.
    KeyCache local(client.context().degree());
    local.insertMultiplication(tk.mult);
    for (const auto &[r, key] : tk.rotations)
        local.insertRotation(r, key);
    std::future<ServeResult> fut;
    ASSERT_EQ(s.server->trySubmitRemote(
                  widx, std::make_shared<Ciphertext>(input), &local,
                  fut),
              AdmitResult::Admitted);
    const ServeResult in_process = fut.get();
    ASSERT_TRUE(in_process.ok) << in_process.error;

    EXPECT_EQ(remote.checksum, in_process.checksum);
    EXPECT_EQ(remote.final_level, in_process.final_level);
    EXPECT_EQ(remote.he_ops, in_process.he_ops);

    // And the tenant can decrypt its result.
    CkksDecryptor decryptor(client.context(), tk.sk);
    const std::vector<Complex> out =
        encoder.decode(decryptor.decrypt(remote.output),
                       client.params().num_slots);
    ASSERT_EQ(out.size(), client.params().num_slots);
    for (const Complex &c : out) {
        EXPECT_TRUE(std::isfinite(c.real()));
        EXPECT_TRUE(std::isfinite(c.imag()));
    }

    client.closeSession();
}

TEST(NetServing, LoopbackMatchesInProcessScalarBackend)
{
    loopbackMatchesInProcess(BackendKind::Scalar);
}

TEST(NetServing, LoopbackMatchesInProcessSimdBackend)
{
    loopbackMatchesInProcess(BackendKind::Simd);
}

TEST(NetServing, NonCanonicalSubmitIsBadFieldAndServerStaysUp)
{
    ServerStack s(BackendKind::Scalar);
    const std::vector<i64> rotations = s.workloads[0].rotationAmounts();
    Rng rng(8);

    // A tenant whose input carries a residue equal to q_0: the words
    // pass every shape check, so only ingress range validation can
    // stop them before the kernels' canonical-at-entry contract.
    {
        WireClient client("127.0.0.1", s.net->port());
        client.openSession("tenant-noncanonical");
        TenantKeys tk(client.context(), rng, rotations, 9100);
        uploadKeys(client, tk);
        CkksEncoder encoder(client.context());
        CkksEncryptor encryptor(client.context(), rng);
        Ciphertext input = encryptor.encryptSymmetric(
            encoder.encode(std::vector<Complex>(
                               client.params().num_slots,
                               Complex(0.3, 0)),
                           client.context().maxLevel()),
            tk.sk);
        input.b.limb(0)[0] = client.context().qModuli()[0].value();
        try {
            (void)client.submit(0, input);
            FAIL() << "non-canonical ciphertext accepted";
        } catch (const WireError &e) {
            EXPECT_EQ(e.code(), WireCode::BadField) << e.what();
        }
    }

    // A second session on the same server is served, and its result
    // is bit-identical to in-process execution of the same request.
    WireClient client("127.0.0.1", s.net->port());
    client.openSession("tenant-canonical");
    TenantKeys tk(client.context(), rng, rotations, 9200);
    uploadKeys(client, tk);
    CkksEncoder encoder(client.context());
    CkksEncryptor encryptor(client.context(), rng);
    const Ciphertext input = encryptor.encryptSymmetric(
        encoder.encode(std::vector<Complex>(client.params().num_slots,
                                            Complex(0.3, 0)),
                       client.context().maxLevel()),
        tk.sk);
    const WireClient::SubmitOutcome remote = client.submit(0, input);
    ASSERT_TRUE(remote.ok) << remote.error;
    ASSERT_TRUE(remote.has_output);
    EXPECT_EQ(ciphertextChecksum(remote.output), remote.checksum);

    KeyCache local(client.context().degree());
    local.insertMultiplication(tk.mult);
    for (const auto &[r, key] : tk.rotations)
        local.insertRotation(r, key);
    std::future<ServeResult> fut;
    ASSERT_EQ(s.server->trySubmitRemote(
                  0, std::make_shared<Ciphertext>(input), &local, fut),
              AdmitResult::Admitted);
    const ServeResult in_process = fut.get();
    ASSERT_TRUE(in_process.ok) << in_process.error;
    EXPECT_EQ(remote.checksum, in_process.checksum);
    client.closeSession();
}

TEST(NetServing, SubmitBeforeOpenSessionIsUnknownSession)
{
    ServerStack s(BackendKind::Scalar);
    WireClient client("127.0.0.1", s.net->port());
    CkksEncoder encoder(client.context());
    Rng rng(1);
    KeyGenerator keygen(client.context(), rng);
    const SecretKey sk = keygen.secretKey();
    CkksEncryptor encryptor(client.context(), rng);
    const Ciphertext ct = encryptor.encryptSymmetric(
        encoder.encode(std::vector<Complex>(
                           client.params().num_slots, Complex(0, 0)),
                       client.context().maxLevel()),
        sk);
    try {
        (void)client.submit(0, ct);
        FAIL() << "submit before OPEN_SESSION accepted";
    } catch (const WireError &e) {
        EXPECT_EQ(e.code(), WireCode::UnknownSession);
    }
}

TEST(NetServing, SessionCapRefusesWithSessionLimit)
{
    BatchServerConfig cfg;
    cfg.max_sessions = 1;
    ServerStack s(BackendKind::Scalar, cfg);

    WireClient first("127.0.0.1", s.net->port());
    first.openSession("tenant-1");
    EXPECT_EQ(s.net->activeSessions(), 1u);

    WireClient second("127.0.0.1", s.net->port());
    try {
        second.openSession("tenant-2");
        FAIL() << "session cap not enforced";
    } catch (const WireError &e) {
        EXPECT_EQ(e.code(), WireCode::SessionLimit);
    }

    // Closing the first session frees the slot for a new tenant.
    first.closeSession();
    EXPECT_EQ(s.net->activeSessions(), 0u);
    WireClient third("127.0.0.1", s.net->port());
    EXPECT_GT(third.openSession("tenant-3"), 0u);
}

TEST(NetServing, MissingUploadedKeyIsTypedInResponse)
{
    ServerStack s(BackendKind::Scalar);
    WireClient client("127.0.0.1", s.net->port());
    client.openSession("tenant-keyless");

    // No keys uploaded at all: the first key-switching op must fail
    // with MISSING_KEY inside a RESPONSE — the session stays healthy.
    Rng rng(2);
    KeyGenerator keygen(client.context(), rng);
    const SecretKey sk = keygen.secretKey();
    CkksEncoder encoder(client.context());
    CkksEncryptor encryptor(client.context(), rng);
    const Ciphertext input = encryptor.encryptSymmetric(
        encoder.encode(std::vector<Complex>(
                           client.params().num_slots,
                           Complex(0.3, 0)),
                       client.context().maxLevel()),
        sk);
    const WireClient::SubmitOutcome out = client.submit(0, input);
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.code, WireCode::MissingKey);
    EXPECT_FALSE(out.has_output);

    // The session survived: uploading the keys and resubmitting works.
    const RemoteWorkload &wl = client.workloads()[0];
    TenantKeys tk(client.context(), rng, wl.rotations, 7000);
    // Note: tk has its own secret key; re-encrypt under it.
    const Ciphertext input2 = encryptor.encryptSymmetric(
        encoder.encode(std::vector<Complex>(
                           client.params().num_slots,
                           Complex(0.3, 0)),
                       client.context().maxLevel()),
        tk.sk);
    uploadKeys(client, tk);
    const WireClient::SubmitOutcome ok = client.submit(0, input2);
    EXPECT_TRUE(ok.ok) << ok.error;
    client.closeSession();
}

TEST(NetServing, UnknownWorkloadIsRetryable)
{
    ServerStack s(BackendKind::Scalar);
    WireClient client("127.0.0.1", s.net->port());
    client.openSession("tenant-oops");

    Rng rng(3);
    KeyGenerator keygen(client.context(), rng);
    const SecretKey sk = keygen.secretKey();
    CkksEncoder encoder(client.context());
    CkksEncryptor encryptor(client.context(), rng);
    const Ciphertext input = encryptor.encryptSymmetric(
        encoder.encode(std::vector<Complex>(
                           client.params().num_slots,
                           Complex(0.1, 0)),
                       client.context().maxLevel()),
        sk);

    const WireClient::SubmitOutcome out =
        client.submit(/*workload_index=*/999, input);
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.code, WireCode::UnknownWorkload);

    // Retryable: the same session serves a valid index afterwards
    // (MISSING_KEY since no keys are uploaded — but it's a RESPONSE,
    // proving the submit was admitted and executed).
    const WireClient::SubmitOutcome again = client.submit(0, input);
    EXPECT_EQ(again.code, WireCode::MissingKey);
    client.closeSession();
}

TEST(NetServing, ShutdownSurfacesAsServerShutdown)
{
    ServerStack s(BackendKind::Scalar);
    WireClient client("127.0.0.1", s.net->port());
    client.openSession("tenant-late");

    Rng rng(4);
    KeyGenerator keygen(client.context(), rng);
    const SecretKey sk = keygen.secretKey();
    CkksEncoder encoder(client.context());
    CkksEncryptor encryptor(client.context(), rng);
    const Ciphertext input = encryptor.encryptSymmetric(
        encoder.encode(std::vector<Complex>(
                           client.params().num_slots,
                           Complex(0.2, 0)),
                       client.context().maxLevel()),
        sk);

    // Stop the execution plane (the wire front-end stays up): the
    // typed admission surface must say SERVER_SHUTDOWN, not hang or
    // report a queue-full retry.
    s.server->shutdown();
    try {
        (void)client.submit(0, input);
        FAIL() << "submit to a shut-down server succeeded";
    } catch (const WireError &e) {
        EXPECT_EQ(e.code(), WireCode::ServerShutdown);
    }
}

TEST(NetServing, MalformedHelloIsRejected)
{
    ServerStack s(BackendKind::Scalar);

    // A raw peer that speaks the envelope but violates the §5 flow:
    // first frame is not CLIENT_HELLO.
    TcpStream raw = TcpStream::connect("127.0.0.1", s.net->port());
    raw.sendFrame(FrameType::Submit, 0, {});
    TcpStream::Frame f = raw.recvFrame(kDefaultMaxFrameBytes);
    ASSERT_EQ(f.header.type, FrameType::Error);
    ByteReader r(f.body);
    EXPECT_EQ(static_cast<WireCode>(r.getU16()), WireCode::Protocol);
    EXPECT_EQ(r.getU8(), 1); // fatal

    // A v2 client: the server answers UNSUPPORTED_VERSION (§8).
    TcpStream raw2 = TcpStream::connect("127.0.0.1", s.net->port());
    {
        ByteWriter w;
        w.putU16(2); // min_version
        w.putU16(2); // max_version
        w.putString("future-client");
        raw2.sendFrame(FrameType::ClientHello, 0, w.take());
    }
    TcpStream::Frame f2 = raw2.recvFrame(kDefaultMaxFrameBytes);
    ASSERT_EQ(f2.header.type, FrameType::Error);
    ByteReader r2(f2.body);
    EXPECT_EQ(static_cast<WireCode>(r2.getU16()),
              WireCode::UnsupportedVersion);
}

TEST(NetServing, WrongParamsHashIsFatalMismatch)
{
    ServerStack s(BackendKind::Scalar);
    TcpStream raw = TcpStream::connect("127.0.0.1", s.net->port());
    {
        ByteWriter w;
        w.putU16(kWireVersion);
        w.putU16(kWireVersion);
        w.putString("hash-liar");
        raw.sendFrame(FrameType::ClientHello, 0, w.take());
    }
    // Drain the three hello frames.
    (void)raw.recvFrame(kDefaultMaxFrameBytes);
    (void)raw.recvFrame(kDefaultMaxFrameBytes);
    (void)raw.recvFrame(kDefaultMaxFrameBytes);

    // OPEN_SESSION bound to the wrong parameter-set hash.
    ByteWriter w;
    w.putString("tenant-x");
    raw.sendFrame(FrameType::OpenSession, /*params_hash=*/1234,
                  w.take());
    TcpStream::Frame f = raw.recvFrame(kDefaultMaxFrameBytes);
    ASSERT_EQ(f.header.type, FrameType::Error);
    ByteReader r(f.body);
    EXPECT_EQ(static_cast<WireCode>(r.getU16()),
              WireCode::ParamsMismatch);
    EXPECT_EQ(r.getU8(), 1); // fatal
}

TEST(NetServing, RetiredFramesAreFatalProtocolErrors)
{
    ServerStack s(BackendKind::Scalar);
    const u64 hash = paramsHash(s.ctx->params());
    Rng rng(31);
    KeyGenerator keygen(*s.ctx, rng);
    const SecretKey sk = keygen.secretKey();
    const PublicKey pk = keygen.publicKey(sk);
    const Plaintext pt = s.encoder->encode(
        std::vector<Complex>(s.ctx->params().num_slots, Complex(0.5, 0)),
        s.ctx->maxLevel());

    // Well-formed bodies in the retired §5.8 / §5.10 layouts, each
    // sent on its own open session.
    ByteWriter pk_body;
    pk_body.putU8(0);  // flags: not seed-compressed
    pk_body.putU64(0); // seed
    writePoly(pk_body, pk.b);
    writePoly(pk_body, pk.a);
    ByteWriter pt_body;
    pt_body.putF64(pt.scale);
    pt_body.putI32(pt.level);
    writePoly(pt_body, pt.poly);

    for (auto [type, body] :
         {std::pair{FrameType::PublicKey, pk_body.take()},
          std::pair{FrameType::Plaintext, pt_body.take()}}) {
        TcpStream raw = TcpStream::connect("127.0.0.1", s.net->port());
        {
            ByteWriter w;
            w.putU16(kWireVersion);
            w.putU16(kWireVersion);
            w.putString("retired-frames");
            raw.sendFrame(FrameType::ClientHello, 0, w.take());
        }
        for (int i = 0; i < 3; ++i) // SERVER_HELLO, PARAMS, WORKLOADS
            (void)raw.recvFrame(kDefaultMaxFrameBytes);
        {
            ByteWriter w;
            w.putString("tenant-retired");
            raw.sendFrame(FrameType::OpenSession, hash, w.take());
        }
        ASSERT_EQ(raw.recvFrame(kDefaultMaxFrameBytes).header.type,
                  FrameType::SessionAccept);

        raw.sendFrame(type, hash, body);
        TcpStream::Frame f = raw.recvFrame(kDefaultMaxFrameBytes);
        ASSERT_EQ(f.header.type, FrameType::Error)
            << frameTypeName(type) << " answered with "
            << frameTypeName(f.header.type);
        ByteReader r(f.body);
        EXPECT_EQ(static_cast<WireCode>(r.getU16()), WireCode::Protocol)
            << frameTypeName(type);
        EXPECT_EQ(r.getU8(), 1) << frameTypeName(type); // fatal
    }

    // The server keeps serving: a fresh session runs a request.
    WireClient client("127.0.0.1", s.net->port());
    client.openSession("tenant-after");
    Rng tenant_rng(32);
    TenantKeys tk(client.context(), tenant_rng,
                  client.workloads()[0].rotations, 9500);
    uploadKeys(client, tk);
    CkksEncoder encoder(client.context());
    CkksEncryptor encryptor(client.context(), tenant_rng);
    const Ciphertext input = encryptor.encryptSymmetric(
        encoder.encode(std::vector<Complex>(client.params().num_slots,
                                            Complex(0.4, -0.2)),
                       client.context().maxLevel()),
        tk.sk);
    const WireClient::SubmitOutcome out = client.submit(0, input);
    EXPECT_TRUE(out.ok) << out.error;
    client.closeSession();
}

TEST(NetServing, StatsFramePollsLiveServer)
{
    obs::setMetricsEnabled(true);
    obs::MetricsRegistry::global().reset();
    ServerStack s(BackendKind::Scalar);
    WireClient client("127.0.0.1", s.net->port());

    // §5.16: STATS needs no open session — post-hello polling works
    // for dashboards that never submit.
    RemoteStats st = client.stats();
    EXPECT_EQ(st.active_sessions, 0u);
    ASSERT_EQ(st.queues.size(), 1u);
    EXPECT_EQ(st.queues[0].total_done, 0u);
    EXPECT_GT(st.queues[0].queue_capacity, 0u);
    // The catalog ships every counter and phase by name, always.
    ASSERT_EQ(st.counters.size(), obs::kCounterCount);
    ASSERT_EQ(st.phases.size(), obs::kPhaseCount);
    EXPECT_EQ(st.counters[0].name,
              obs::counterName(obs::Counter::AdmitAccepted));

    // Run one real request; the next poll must reflect it.
    client.openSession("tenant-stats");
    const RemoteWorkload &wl = client.workloads()[0];
    Rng rng(6);
    TenantKeys tk(client.context(), rng, wl.rotations, 8100);
    uploadKeys(client, tk);
    CkksEncoder encoder(client.context());
    CkksEncryptor encryptor(client.context(), rng);
    const Ciphertext input = encryptor.encryptSymmetric(
        encoder.encode(std::vector<Complex>(
                           client.params().num_slots,
                           Complex(0.25, 0)),
                       client.context().maxLevel()),
        tk.sk);
    const WireClient::SubmitOutcome out = client.submit(0, input);
    ASSERT_TRUE(out.ok) << out.error;

    st = client.stats();
    EXPECT_EQ(st.active_sessions, 1u);
    EXPECT_EQ(st.sessions_opened, 1u);
    ASSERT_EQ(st.queues.size(), 1u);
    EXPECT_EQ(st.queues[0].total_done, 1u);
    u64 done = 0, polls = 0;
    double execute_count = 0;
    for (const StatsCounterEntry &c : st.counters) {
        if (c.name == obs::counterName(obs::Counter::RequestsDone))
            done = c.value;
        if (c.name == obs::counterName(obs::Counter::StatsPolls))
            polls = c.value;
    }
    for (const StatsPhaseEntry &p : st.phases) {
        if (p.name == obs::phaseName(obs::Phase::Execute)) {
            execute_count = static_cast<double>(p.count);
            EXPECT_GE(p.max_ms, 0.0);
            EXPECT_GE(p.p99_ms, p.p50_ms);
        }
    }
    EXPECT_EQ(done, 1u);
    EXPECT_GE(polls, 1u); // the first poll counted itself
    EXPECT_EQ(execute_count, 1.0);
    // The server has one queue, so its one entry accounts for every
    // completed request and holds nothing once the response arrived.
    EXPECT_EQ(st.queues[0].total_done, done);
    EXPECT_EQ(st.queues[0].queue_capacity,
              s.server->config().queue_capacity);
    EXPECT_EQ(st.queues[0].queue_depth, 0u);
    EXPECT_EQ(st.queues[0].in_flight, 0u);

    // The human rendering names the load-bearing numbers.
    const std::string text = st.toString();
    EXPECT_NE(text.find("queue:"), std::string::npos);
    EXPECT_NE(text.find("requests_done"), std::string::npos);

    client.closeSession();
    obs::resetObsOverrides();
    obs::MetricsRegistry::global().reset();
}

TEST(NetServing, QueueAdmissionIsTypedFullVsClosed)
{
    // The typed surface at its source: Full and Closed are distinct
    // outcomes of tryPush (the wire layer maps them to
    // QUEUE_FULL and SERVER_SHUTDOWN).
    RequestQueue q(1);
    ServeJob a;
    a.request.id = 1;
    EXPECT_EQ(q.tryPush(std::move(a)), AdmitResult::Admitted);
    ServeJob b;
    b.request.id = 2;
    EXPECT_EQ(q.tryPush(std::move(b)), AdmitResult::Full);
    q.close();
    ServeJob c;
    c.request.id = 3;
    EXPECT_EQ(q.tryPush(std::move(c)), AdmitResult::Closed);
}

TEST(NetServing, RemoteQueueFullSurfacesOverTheWire)
{
    // Deterministically induce QUEUE_FULL: one worker, one queue
    // slot, and a stream of blocking in-process producers keeping the
    // slot occupied while the remote tenant probes.
    BatchServerConfig cfg;
    cfg.workers = 1;
    cfg.queue_capacity = 1;
    ServerStack s(BackendKind::Scalar, cfg);

    WireClient client("127.0.0.1", s.net->port());
    client.openSession("tenant-shed");
    const RemoteWorkload &wl = client.workloads()[0];
    Rng rng(5);
    TenantKeys tk(client.context(), rng, wl.rotations, 8000);
    uploadKeys(client, tk);
    CkksEncoder encoder(client.context());
    CkksEncryptor encryptor(client.context(), rng);
    const Ciphertext input = encryptor.encryptSymmetric(
        encoder.encode(std::vector<Complex>(
                           client.params().num_slots,
                           Complex(0.45, 0)),
                       client.context().maxLevel()),
        tk.sk);

    // Background producers: blocking submits keep the single queue
    // slot at capacity while each request executes.
    std::thread producer([&] {
        std::vector<std::future<ServeResult>> futs;
        for (int i = 0; i < 12; ++i)
            futs.push_back(s.server->submit(0));
        for (auto &f : futs)
            (void)f.get();
    });

    // Probe until the typed refusal shows up; every admitted probe
    // still round-trips correctly (ok or MISSING_KEY never happens —
    // keys are uploaded).
    bool saw_queue_full = false;
    for (int i = 0; i < 50 && !saw_queue_full; ++i) {
        const WireClient::SubmitOutcome out = client.submit(0, input);
        if (!out.ok) {
            EXPECT_EQ(out.code, WireCode::QueueFull);
            saw_queue_full = out.code == WireCode::QueueFull;
        }
    }
    producer.join();
    EXPECT_TRUE(saw_queue_full)
        << "no QUEUE_FULL observed in 50 probes against a "
           "single-slot queue under sustained load";

    // The session survived the shed: a final submit succeeds.
    const WireClient::SubmitOutcome after = client.submit(0, input);
    EXPECT_TRUE(after.ok) << after.error;
    client.closeSession();
    (void)s.server->drain();
}

} // namespace
} // namespace ark
