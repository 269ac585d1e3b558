#include "net/wire_client.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/metrics.h"
#include "rns/automorphism.h"

namespace ark {

namespace {

/** Decode a §5.15 ERROR body into a WireError. */
WireError
decodeError(const std::vector<u8> &body)
{
    ByteReader r(body);
    const WireCode code = static_cast<WireCode>(r.getU16());
    r.getU8(); // fatal flag (thrown errors are treated as fatal)
    const std::string msg = r.getString();
    r.finish();
    return WireError(code, std::string(wireCodeName(code)) + ": " +
                               msg);
}

/** Refusals worth resubmitting: transient server-side pressure.
 *  UNKNOWN_WORKLOAD is deliberately absent — the catalog will not
 *  change on retry, so resubmitting the same index cannot help. */
bool
retryableCode(WireCode c)
{
    return c == WireCode::QueueFull || c == WireCode::Shed ||
           c == WireCode::DeadlineExceeded;
}

/** splitmix64 step — the jitter stream for the retry backoff. */
u64
jitterNext(u64 &state)
{
    u64 z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** Client-chosen request ids live in the top half of the u64 space;
 *  the server's own counter starts at 1, so the two can never
 *  collide. */
constexpr u64 kClientRequestIdBase = 1ull << 63;

} // namespace

WireClient::WireClient(const std::string &addr, u16 port,
                       const std::string &client_name)
    : addr_(addr), port_(port), client_name_(client_name)
{
    connectAndHello();
}

void
WireClient::connectAndHello()
{
    stream_ = std::make_unique<TcpStream>(
        TcpStream::connect(addr_, port_));

    // §5.1 CLIENT_HELLO: this implementation speaks exactly v1.
    {
        ByteWriter w;
        w.putU16(kWireVersion);
        w.putU16(kWireVersion);
        w.putString(client_name_);
        stream_->sendFrame(FrameType::ClientHello, 0, w.take());
    }

    // §5.2 SERVER_HELLO.
    u64 hello_hash = 0;
    {
        TcpStream::Frame f =
            stream_->recvFrame(server_max_frame_bytes_);
        if (f.header.type == FrameType::Error)
            throw decodeError(f.body);
        if (f.header.type != FrameType::ServerHello)
            throw WireError(WireCode::Protocol,
                            std::string("expected SERVER_HELLO, got ") +
                                frameTypeName(f.header.type));
        ByteReader r(f.body);
        const u16 version = r.getU16();
        if (version != kWireVersion)
            throw WireError(WireCode::UnsupportedVersion,
                            "server negotiated unsupported version " +
                                std::to_string(version));
        r.getString(); // server name (informational)
        server_max_sessions_ = r.getU32();
        server_max_frame_bytes_ = r.getU64();
        r.finish();
        hello_hash = f.header.params_hash;
    }

    // §5.3 PARAMS: rebuild the scheme context locally and verify the
    // §3 hash binding — the strongest possible check that both sides
    // agree on every scheme-defining field.
    {
        TcpStream::Frame f =
            stream_->recvFrame(server_max_frame_bytes_);
        if (f.header.type != FrameType::Params)
            throw WireError(WireCode::Protocol,
                            std::string("expected PARAMS, got ") +
                                frameTypeName(f.header.type));
        ByteReader r(f.body);
        CkksParams p = readParams(r);
        r.finish();
        if (paramsHash(p) != hello_hash)
            throw WireError(
                WireCode::ParamsMismatch,
                "PARAMS body hashes to a different value than the "
                "bound parameter-set hash");
        if (ctx_) {
            // Reconnect path: everything this client holds — keys,
            // encoded inputs, the caller's context() reference — is
            // bound to the ORIGINAL set. A server that changed
            // parameters is a different server.
            if (hello_hash != params_hash_)
                throw WireError(WireCode::ParamsMismatch,
                                "server parameter set changed across "
                                "reconnect");
        } else {
            params_ = std::move(p);
            params_hash_ = hello_hash;
            ctx_ = std::make_unique<CkksContext>(params_);
        }
    }

    // §5.4 WORKLOAD_LIST.
    {
        TcpStream::Frame f =
            stream_->recvFrame(server_max_frame_bytes_);
        if (f.header.type != FrameType::WorkloadList)
            throw WireError(
                WireCode::Protocol,
                std::string("expected WORKLOAD_LIST, got ") +
                    frameTypeName(f.header.type));
        ByteReader r(f.body);
        const u32 count = r.getU32();
        workloads_.clear();
        workloads_.reserve(count);
        for (u32 i = 0; i < count; ++i) {
            RemoteWorkload wl;
            wl.name = r.getString();
            wl.op_count = r.getU32();
            wl.levels_needed = r.getU32();
            const u32 n_rot = r.getU32();
            wl.rotations.reserve(n_rot);
            for (u32 j = 0; j < n_rot; ++j)
                wl.rotations.push_back(r.getI64());
            workloads_.push_back(std::move(wl));
        }
        r.finish();
    }
}

WireClient::~WireClient()
{
    disconnect();
}

void
WireClient::disconnect()
{
    if (stream_) {
        stream_->shutdownBoth();
        stream_.reset();
    }
    session_open_ = false;
}

void
WireClient::setOpTimeoutMs(u64 ms)
{
    op_timeout_ms_ = ms;
    applyOpTimeout();
}

void
WireClient::applyOpTimeout()
{
    if (stream_ && op_timeout_ms_ > 0) {
        stream_->setRecvTimeoutMs(op_timeout_ms_);
        stream_->setSendTimeoutMs(op_timeout_ms_);
    }
}

void
WireClient::reconnect()
{
    const bool had_session = session_open_;
    disconnect();
    connectAndHello();
    applyOpTimeout();
    reconnects_ += 1;
    if (had_session) {
        openSessionOnWire(tenant_name_);
        for (const CachedEvalKey &k : cached_evks_)
            uploadEvalKey(k.purpose, k.galois_elt, k.key);
    }
}

TcpStream::Frame
WireClient::roundTrip(FrameType type, const std::vector<u8> &body)
{
    if (!stream_)
        throw NetError("client is disconnected");
    stream_->sendFrame(type, params_hash_, body);
    TcpStream::Frame f = stream_->recvFrame(server_max_frame_bytes_);
    // §3: the server binds every post-hello frame to the set too.
    if (f.header.type != FrameType::Error &&
        f.header.params_hash != params_hash_)
        throw WireError(WireCode::ParamsMismatch,
                        "server frame bound to a different "
                        "parameter-set hash");
    return f;
}

u64
WireClient::openSessionOnWire(const std::string &tenant_name)
{
    ByteWriter w;
    w.putString(tenant_name);
    TcpStream::Frame f = roundTrip(FrameType::OpenSession, w.take());
    if (f.header.type == FrameType::Error)
        throw decodeError(f.body);
    if (f.header.type != FrameType::SessionAccept)
        throw WireError(WireCode::Protocol,
                        std::string("expected SESSION_ACCEPT, got ") +
                            frameTypeName(f.header.type));
    ByteReader r(f.body);
    session_id_ = r.getU64();
    r.finish();
    session_open_ = true;
    return session_id_;
}

u64
WireClient::openSession(const std::string &tenant_name)
{
    tenant_name_ = tenant_name;
    return openSessionOnWire(tenant_name);
}

u64
WireClient::keyAck(TcpStream::Frame f)
{
    if (f.header.type == FrameType::Error)
        throw decodeError(f.body);
    if (f.header.type != FrameType::KeyAck)
        throw WireError(WireCode::Protocol,
                        std::string("expected KEY_ACK, got ") +
                            frameTypeName(f.header.type));
    ByteReader r(f.body);
    const u64 resident_bytes = r.getU64();
    r.finish();
    return resident_bytes;
}

u64
WireClient::uploadEvalKey(EvalKeyPurpose purpose, u64 galois_elt,
                          const EvalKey &key)
{
    ByteWriter w;
    writeEvalKey(w, purpose, galois_elt, key);
    return keyAck(roundTrip(FrameType::EvalKey, w.take()));
}

u64
WireClient::uploadMultiplicationKey(const EvalKey &key)
{
    cached_evks_.push_back(
        {EvalKeyPurpose::Multiplication, 0, key});
    return uploadEvalKey(EvalKeyPurpose::Multiplication, 0, key);
}

u64
WireClient::uploadRotationKey(i64 amount, const EvalKey &key)
{
    const u64 elt = galoisElt(amount, ctx_->degree());
    cached_evks_.push_back({EvalKeyPurpose::Galois, elt, key});
    return uploadEvalKey(EvalKeyPurpose::Galois, elt, key);
}

WireClient::SubmitOutcome
WireClient::submit(size_t workload_index, const Ciphertext &input,
                   u64 deadline_ms, u64 request_id)
{
    ByteWriter w;
    const bool v2 = deadline_ms != 0 || request_id != 0;
    if (v2) {
        // §5.19 SUBMIT2 prefix; the rest is the frozen SUBMIT body.
        w.putU64(request_id);
        w.putU64(deadline_ms);
    }
    w.putU32(static_cast<u32>(workload_index));
    writeCiphertext(w, input);
    TcpStream::Frame f = roundTrip(
        v2 ? FrameType::Submit2 : FrameType::Submit, w.take());

    SubmitOutcome out;
    if (f.header.type == FrameType::Error) {
        WireError e = decodeError(f.body);
        // Retryable refusals surface as a failed outcome; anything
        // else means the session is dead and the caller must know.
        // SHED joins QUEUE_FULL as retryable: the SLO admission
        // controller asks this client to back off, not to hang up.
        // DEADLINE_EXCEEDED means the request aged out queued — the
        // session is fine and a resubmit gets a fresh deadline.
        if (e.code() != WireCode::QueueFull &&
            e.code() != WireCode::Shed &&
            e.code() != WireCode::UnknownWorkload &&
            e.code() != WireCode::DeadlineExceeded)
            throw e;
        out.code = e.code();
        out.error = e.what();
        return out;
    }
    if (f.header.type != FrameType::Response)
        throw WireError(WireCode::Protocol,
                        std::string("expected RESPONSE, got ") +
                            frameTypeName(f.header.type));
    ByteReader r(f.body);
    out.request_id = r.getU64();
    out.ok = r.getU8() != 0;
    out.code = static_cast<WireCode>(r.getU16());
    out.error = r.getString();
    out.checksum = r.getU64();
    out.final_level = r.getI32();
    out.he_ops = r.getU64();
    out.latency_ms = r.getF64();
    out.has_output = r.getU8() != 0;
    if (out.has_output)
        out.output = readCiphertext(r, *ctx_);
    r.finish();
    return out;
}

WireClient::SubmitOutcome
WireClient::submitWithRetry(size_t workload_index,
                            const Ciphertext &input,
                            const RetryPolicy &policy, u64 deadline_ms,
                            u64 request_id)
{
    // A stable id across attempts: the server sees every resubmit of
    // this request under the same key.
    if (request_id == 0)
        request_id = kClientRequestIdBase | ++next_request_id_;

    const size_t attempts = std::max<size_t>(policy.max_attempts, 1);
    u64 rng = policy.jitter_seed ? policy.jitter_seed : 1;
    u64 prev_ms = std::max<u64>(policy.base_backoff_ms, 1);
    SubmitOutcome last;

    for (size_t attempt = 1;; ++attempt) {
        bool transport_down = false;
        try {
            last = submit(workload_index, input, deadline_ms,
                          request_id);
            if (last.ok || !retryableCode(last.code))
                return last;
        } catch (const NetError &) {
            // NetClosed / NetTimeout / plain NetError: the connection
            // is suspect. Rebuild it below unless the policy forbids
            // that, or this was the last attempt.
            if (!policy.reconnect || attempt >= attempts)
                throw;
            transport_down = true;
        }
        if (attempt >= attempts)
            return last;

        obs::count(obs::Counter::ClientRetries);

        // Decorrelated jitter: uniform in [base, prev*3], capped.
        const u64 lo = std::max<u64>(policy.base_backoff_ms, 1);
        const u64 hi = std::max(lo, prev_ms * 3);
        u64 sleep = lo + jitterNext(rng) % (hi - lo + 1);
        sleep = std::min(sleep,
                         std::max<u64>(policy.max_backoff_ms, 1));
        prev_ms = sleep;
        if (policy.sleep_ms)
            policy.sleep_ms(sleep);
        else
            std::this_thread::sleep_for(
                std::chrono::milliseconds(sleep));

        if (transport_down || !stream_) {
            try {
                reconnect();
            } catch (const NetError &) {
                // Server still unreachable — the next attempt's
                // submit() throws on the dead stream and either
                // retries again or exhausts the budget.
            }
        }
    }
}

RemoteStats
WireClient::stats()
{
    TcpStream::Frame f = roundTrip(FrameType::Stats, {});
    if (f.header.type == FrameType::Error)
        throw decodeError(f.body);
    if (f.header.type != FrameType::Stats)
        throw WireError(WireCode::Protocol,
                        std::string("expected STATS, got ") +
                            frameTypeName(f.header.type));
    ByteReader r(f.body);
    RemoteStats s = readStats(r);
    r.finish();
    return s;
}

WireClient::PingResult
WireClient::ping()
{
    const u64 nonce = next_ping_nonce_++;
    ByteWriter w;
    w.putU64(nonce);
    const auto t0 = std::chrono::steady_clock::now();
    TcpStream::Frame f = roundTrip(FrameType::Ping, w.take());
    const double rtt_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    if (f.header.type == FrameType::Error)
        throw decodeError(f.body);
    if (f.header.type != FrameType::Pong)
        throw WireError(WireCode::Protocol,
                        std::string("expected PONG, got ") +
                            frameTypeName(f.header.type));
    ByteReader r(f.body);
    PingResult out;
    out.nonce = r.getU64();
    out.uptime_ms = r.getU64();
    r.finish();
    if (out.nonce != nonce)
        throw WireError(WireCode::Protocol,
                        "PONG echoed a different nonce");
    out.rtt_ms = rtt_ms;
    return out;
}

void
WireClient::closeSession()
{
    if (!session_open_)
        return;
    ByteWriter w;
    w.putU64(session_id_);
    TcpStream::Frame f =
        roundTrip(FrameType::CloseSession, w.take());
    if (f.header.type == FrameType::Error)
        throw decodeError(f.body);
    if (f.header.type != FrameType::CloseSession)
        throw WireError(WireCode::Protocol,
                        std::string("expected CLOSE_SESSION echo, "
                                    "got ") +
                            frameTypeName(f.header.type));
    session_open_ = false;
}

} // namespace ark
