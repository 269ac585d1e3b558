#include "net/wire_server.h"

#include "common/env.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ark {

namespace {

/** §5.15 ERROR body. */
std::vector<u8>
errorBody(WireCode code, bool fatal, const std::string &message)
{
    ByteWriter w;
    w.putU16(static_cast<u16>(code));
    w.putU8(fatal ? 1 : 0);
    w.putString(message);
    return w.take();
}

/** §7: map an execution failure class onto its wire code. */
WireCode
codeOf(ServeErrorKind kind)
{
    switch (kind) {
      case ServeErrorKind::None:
        return WireCode::Ok;
      case ServeErrorKind::LevelExhausted:
        return WireCode::LevelExhausted;
      case ServeErrorKind::MissingKey:
        return WireCode::MissingKey;
      case ServeErrorKind::Shed:
        // A queued request evicted by SLO admission control after it
        // was admitted: its RESPONSE carries the retryable SHED code.
        return WireCode::Shed;
      case ServeErrorKind::DeadlineExceeded:
        // Dropped before execution because the client's own deadline
        // passed — retryable (with a fresh deadline).
        return WireCode::DeadlineExceeded;
      case ServeErrorKind::DrainRefused:
        // Queued at graceful drain, never started: the same fatal
        // code a pre-admission shutdown refusal carries.
        return WireCode::ServerShutdown;
      case ServeErrorKind::Other:
        break;
    }
    return WireCode::ExecFailed;
}

/** A fatal protocol violation: sent as an ERROR frame, then the
 *  connection closes. Thrown to unwind the session loop. */
struct FatalWireError
{
    WireCode code;
    std::string message;
};

/** ARK_STATS_INTERVAL_MS: periodic live-stats emission interval.
 *  Empty = unset (no emitter); junk or out-of-range is fatal. */
u64
statsIntervalMsFromEnv()
{
    return envU64("ARK_STATS_INTERVAL_MS", 1, 3600000,
                  "an integer in [1, 3600000]")
        .value_or(0);
}

} // namespace

WireServer::WireServer(BatchServer &server)
    : server_(server),
      params_hash_(paramsHash(server.context().params())),
      max_frame_bytes_(server.config().max_frame_bytes),
      addr_(server.config().listen_addr),
      listener_(server.config().listen_addr, server.config().listen_port)
{
    port_ = listener_.port();
    ARK_LOG(Info, "wire server listening on %s:%u", addr_.c_str(),
            static_cast<unsigned>(port_));
    if (const u64 interval_ms = statsIntervalMsFromEnv()) {
        emitter_ = std::make_unique<obs::StatsEmitter>(
            std::chrono::milliseconds(interval_ms),
            [this] { return collectStats().toString(); });
    }
    accept_thread_ = std::thread([this] { acceptLoop(); });
}

WireServer::~WireServer()
{
    stop();
}

void
WireServer::stop()
{
    if (stop_.exchange(true))
        return;
    if (emitter_)
        emitter_->stop();
    if (accept_thread_.joinable())
        accept_thread_.join();
    listener_.close();
    std::lock_guard<std::mutex> lk(conns_m_);
    for (auto &conn : conns_) {
        // Wake the session thread out of recvFrame, then join it.
        conn->stream.shutdownBoth();
        if (conn->thread.joinable())
            conn->thread.join();
    }
    conns_.clear();
}

void
WireServer::acceptLoop()
{
    while (!stop_.load()) {
        Socket sock = listener_.accept(stop_);
        if (!sock.valid())
            break; // stopped
        std::lock_guard<std::mutex> lk(conns_m_);
        conns_.push_back(
            std::make_unique<Connection>(TcpStream(std::move(sock))));
        Connection &conn = *conns_.back();
        // The idle-session reaper and the slow-reader guard are plain
        // socket deadlines: an expired one surfaces as NetTimeout in
        // the session loop, which reports IDLE_TIMEOUT and closes.
        if (server_.config().idle_timeout_ms > 0)
            conn.stream.setRecvTimeoutMs(
                server_.config().idle_timeout_ms);
        if (server_.config().io_timeout_ms > 0)
            conn.stream.setSendTimeoutMs(server_.config().io_timeout_ms);
        conn.thread =
            std::thread([this, &conn] { serveConnection(conn); });
    }
}

RemoteStats
WireServer::collectStats() const
{
    RemoteStats st;
    st.uptime_ms = static_cast<u64>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start_tp_)
            .count());
    st.active_sessions = active_sessions_.load();
    st.sessions_opened = sessions_opened_.load();

    const ServerLiveStats live = server_.liveStats();
    st.outstanding = live.outstanding;
    // The frame keeps its per-queue list (docs/wire_format.md §5.16);
    // a server has one queue, so it always sends one entry.
    StatsQueueEntry e;
    e.queue_depth = live.queue_depth;
    e.queue_capacity = live.queue_capacity;
    e.in_flight = live.in_flight;
    e.total_done = live.total_done;
    st.queues.push_back(e);

    // The registry merges to zeros when ARK_METRICS is off — the
    // frame shape is identical either way (the client need not know
    // the server's recording state).
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::global().snapshot();
    for (size_t i = 0; i < obs::kCounterCount; ++i) {
        StatsCounterEntry e;
        e.name = obs::counterName(static_cast<obs::Counter>(i));
        e.value = snap.counters[i];
        st.counters.push_back(std::move(e));
    }
    for (size_t i = 0; i < obs::kPhaseCount; ++i) {
        const obs::Histogram &h = snap.phases[i];
        StatsPhaseEntry e;
        e.name = obs::phaseName(static_cast<obs::Phase>(i));
        e.count = h.count;
        e.mean_ms = h.meanMs();
        e.p50_ms = h.quantileMs(0.50);
        e.p99_ms = h.quantileMs(0.99);
        e.max_ms = h.max_ms;
        st.phases.push_back(std::move(e));
    }
    return st;
}

void
WireServer::serveConnection(Connection &conn)
{
    TcpStream &stream = conn.stream;
    const CkksContext &ctx = server_.context();

    // Per-connection tenant state. The KeyCache is uploaded-mode:
    // this session's keys only, never the server's own material.
    bool session_open = false;
    u64 session_id = 0;
    std::unique_ptr<KeyCache> tenant_keys;

    auto closeSession = [&] {
        if (session_open) {
            session_open = false;
            active_sessions_.fetch_sub(1);
        }
    };

    try {
        // §5.1-§5.4 hello exchange. The first frame MUST be
        // CLIENT_HELLO; its header carries params_hash 0 (the client
        // cannot know the set yet).
        TcpStream::Frame hello = stream.recvFrame(max_frame_bytes_);
        if (hello.header.type != FrameType::ClientHello)
            throw FatalWireError{WireCode::Protocol,
                                 "expected CLIENT_HELLO, got " +
                                     std::string(frameTypeName(
                                         hello.header.type))};
        ByteReader hr(hello.body);
        const u16 min_v = hr.getU16();
        const u16 max_v = hr.getU16();
        hr.getString(); // client name (informational)
        hr.finish();
        if (kWireVersion < min_v || kWireVersion > max_v)
            throw FatalWireError{
                WireCode::UnsupportedVersion,
                "server speaks v" + std::to_string(kWireVersion) +
                    ", client requires [" + std::to_string(min_v) +
                    ", " + std::to_string(max_v) + "]"};

        {
            // §5.2 SERVER_HELLO: negotiated version + serving limits.
            ByteWriter w;
            w.putU16(kWireVersion);
            w.putString("ark-batch-server");
            w.putU32(static_cast<u32>(server_.config().max_sessions));
            w.putU64(max_frame_bytes_);
            stream.sendFrame(FrameType::ServerHello, params_hash_,
                             w.take());
        }
        {
            // §5.3 PARAMS: the set every later frame is bound to.
            ByteWriter w;
            writeParams(w, ctx.params());
            stream.sendFrame(FrameType::Params, params_hash_,
                             w.take());
        }
        {
            // §5.4 WORKLOAD_LIST: the catalog, with each workload's
            // level budget and rotation set so the client knows
            // exactly which evks to upload.
            ByteWriter w;
            const auto &wls = server_.workloads();
            w.putU32(static_cast<u32>(wls.size()));
            for (const ServeWorkload &wl : wls) {
                w.putString(wl.name);
                w.putU32(static_cast<u32>(wl.ops.size()));
                w.putU32(static_cast<u32>(wl.levelsNeeded()));
                const std::vector<i64> rots = wl.rotationAmounts();
                w.putU32(static_cast<u32>(rots.size()));
                for (i64 r : rots)
                    w.putI64(r);
            }
            stream.sendFrame(FrameType::WorkloadList, params_hash_,
                             w.take());
        }

        // Session loop: one frame in, one frame out, until the peer
        // disconnects or a fatal error unwinds.
        for (;;) {
            TcpStream::Frame f = stream.recvFrame(max_frame_bytes_);
            // §3: every post-hello client frame is bound to the
            // server's parameter set.
            if (f.header.params_hash != params_hash_)
                throw FatalWireError{
                    WireCode::ParamsMismatch,
                    "frame bound to parameter-set hash " +
                        std::to_string(f.header.params_hash) +
                        ", server serves " +
                        std::to_string(params_hash_)};
            ByteReader r(f.body);

            switch (f.header.type) {
              case FrameType::OpenSession: {
                r.getString(); // tenant name (informational)
                r.finish();
                if (session_open)
                    throw FatalWireError{
                        WireCode::Protocol,
                        "session already open on this connection"};
                // Admit-or-refuse under the configured tenant cap.
                size_t cur = active_sessions_.load();
                bool admitted = false;
                while (cur < server_.config().max_sessions) {
                    if (active_sessions_.compare_exchange_weak(
                            cur, cur + 1)) {
                        admitted = true;
                        break;
                    }
                }
                if (!admitted)
                    throw FatalWireError{
                        WireCode::SessionLimit,
                        "server session cap of " +
                            std::to_string(
                                server_.config().max_sessions) +
                            " reached"};
                session_open = true;
                session_id = next_session_id_.fetch_add(1);
                sessions_opened_.fetch_add(1);
                ARK_LOG(Info, "session %llu opened (%zu active)",
                        static_cast<unsigned long long>(session_id),
                        active_sessions_.load());
                obs::gaugeSet(
                    obs::Gauge::ActiveSessions,
                    static_cast<i64>(active_sessions_.load()));
                tenant_keys =
                    std::make_unique<KeyCache>(ctx.degree());
                ByteWriter w;
                w.putU64(session_id);
                stream.sendFrame(FrameType::SessionAccept,
                                 params_hash_, w.take());
                break;
              }

              case FrameType::EvalKey: {
                if (!session_open)
                    throw FatalWireError{
                        WireCode::UnknownSession,
                        "key upload before OPEN_SESSION"};
                WireEvalKey wk = readEvalKey(r, ctx);
                r.finish();
                if (wk.purpose == EvalKeyPurpose::Multiplication)
                    tenant_keys->insertMultiplication(
                        std::move(wk.key));
                else
                    tenant_keys->insertGalois(wk.galois_elt,
                                              std::move(wk.key));
                ByteWriter w;
                w.putU64(tenant_keys->byteSize());
                stream.sendFrame(FrameType::KeyAck, params_hash_,
                                 w.take());
                break;
              }

              case FrameType::Submit:
              case FrameType::Submit2: {
                if (!session_open)
                    throw FatalWireError{
                        WireCode::UnknownSession,
                        "SUBMIT before OPEN_SESSION"};
                // §5.19 SUBMIT2 prefixes the frozen SUBMIT body with
                // a client request id (idempotent retry key; 0 =
                // server assigns) and a relative deadline in ms (0 =
                // none), converted to the server clock's absolute
                // domain HERE, at receipt — the client's clock never
                // crosses the wire.
                u64 client_rid = 0;
                u64 deadline_ms = 0;
                if (f.header.type == FrameType::Submit2) {
                    client_rid = r.getU64();
                    deadline_ms = r.getU64();
                }
                // Reserve the request id up front so the spans
                // recorded on this thread (recv, respond) correlate
                // with the worker's spans and the RESPONSE's
                // request_id. The span clock starts *after*
                // recvFrame: client idle time is not recv time.
                const u64 rid = client_rid != 0
                                    ? client_rid
                                    : server_.reserveRequestId();
                const u64 deadline_us =
                    deadline_ms != 0
                        ? server_.clock().nowMicros() +
                              deadline_ms * 1000
                        : 0;
                const u32 widx = r.getU32();
                if (widx >= server_.workloads().size()) {
                    // Non-fatal: the client mis-indexed the catalog,
                    // the session is still healthy.
                    stream.sendFrame(
                        FrameType::Error, params_hash_,
                        errorBody(WireCode::UnknownWorkload, false,
                                  "workload index " +
                                      std::to_string(widx) +
                                      " out of range"));
                    break;
                }
                std::shared_ptr<Ciphertext> input;
                {
                    const auto recv_t0 =
                        obs::traceEnabled() || obs::metricsEnabled()
                            ? std::chrono::steady_clock::now()
                            : std::chrono::steady_clock::
                                  time_point{};
                    input = std::make_shared<Ciphertext>(
                        readCiphertext(r, ctx));
                    r.finish();
                    if (recv_t0 !=
                        std::chrono::steady_clock::time_point{}) {
                        const auto recv_t1 =
                            std::chrono::steady_clock::now();
                        if (obs::traceEnabled())
                            obs::TraceSession::global().record(
                                "recv", rid, recv_t0, recv_t1);
                        obs::observe(
                            obs::Phase::Recv,
                            std::chrono::duration<double,
                                                  std::milli>(
                                recv_t1 - recv_t0)
                                .count());
                    }
                }
                std::future<ServeResult> fut;
                const AdmitResult admitted = server_.trySubmitRemote(
                    widx, std::move(input), tenant_keys.get(), fut,
                    rid, deadline_us);
                if (admitted == AdmitResult::Full) {
                    // §7: QUEUE_FULL is the retryable refusal — the
                    // typed surface of RequestQueue admission.
                    stream.sendFrame(
                        FrameType::Error, params_hash_,
                        errorBody(WireCode::QueueFull, false,
                                  "admission queue full"));
                    break;
                }
                if (admitted == AdmitResult::Shed) {
                    // §7: SHED is the SLO admission controller's
                    // retryable refusal — capacity exists, but
                    // admitting now would blow the class's p99
                    // target. Clients back off harder than on
                    // QUEUE_FULL (docs/serving.md).
                    stream.sendFrame(
                        FrameType::Error, params_hash_,
                        errorBody(WireCode::Shed, false,
                                  "shed by SLO admission control"));
                    break;
                }
                if (admitted == AdmitResult::Closed)
                    throw FatalWireError{WireCode::ServerShutdown,
                                         "server shutting down"};
                const ServeResult res = fut.get();
                // §5.13 RESPONSE (execution failures ride here, with
                // the §7 code of their ServeErrorKind).
                const auto respond_t0 =
                    obs::traceEnabled() || obs::metricsEnabled()
                        ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{};
                ByteWriter w;
                w.putU64(res.id);
                w.putU8(res.ok ? 1 : 0);
                w.putU16(static_cast<u16>(codeOf(res.error_kind)));
                w.putString(res.error);
                w.putU64(res.checksum);
                w.putI32(res.final_level);
                w.putU64(res.he_ops);
                w.putF64(res.latency_ms);
                w.putU8(res.output ? 1 : 0);
                if (res.output)
                    writeCiphertext(w, *res.output);
                stream.sendFrame(FrameType::Response, params_hash_,
                                 w.take());
                if (respond_t0 !=
                    std::chrono::steady_clock::time_point{}) {
                    const auto respond_t1 =
                        std::chrono::steady_clock::now();
                    if (obs::traceEnabled())
                        obs::TraceSession::global().record(
                            "respond", rid, respond_t0, respond_t1);
                    obs::observe(
                        obs::Phase::Respond,
                        std::chrono::duration<double, std::milli>(
                            respond_t1 - respond_t0)
                            .count());
                }
                break;
              }

              case FrameType::Stats: {
                // §5.16: allowed any time after the hello — a stats
                // poller need not open a tenant session.
                r.finish();
                obs::count(obs::Counter::StatsPolls);
                ByteWriter w;
                writeStats(w, collectStats());
                stream.sendFrame(FrameType::Stats, params_hash_,
                                 w.take());
                break;
              }

              case FrameType::Ping: {
                // §5.17: liveness probe, allowed any time after the
                // hello (like STATS — no tenant session needed). The
                // PONG echoes the nonce and reports uptime.
                const u64 nonce = r.getU64();
                r.finish();
                ByteWriter w;
                w.putU64(nonce);
                w.putU64(static_cast<u64>(
                    std::chrono::duration_cast<
                        std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - start_tp_)
                        .count()));
                stream.sendFrame(FrameType::Pong, params_hash_,
                                 w.take());
                break;
              }

              case FrameType::CloseSession: {
                const u64 id = r.getU64();
                r.finish();
                if (!session_open || id != session_id)
                    throw FatalWireError{
                        WireCode::UnknownSession,
                        "CLOSE_SESSION for unknown session " +
                            std::to_string(id)};
                closeSession();
                tenant_keys.reset();
                ARK_LOG(Info, "session %llu closed",
                        static_cast<unsigned long long>(id));
                ByteWriter w;
                w.putU64(id);
                stream.sendFrame(FrameType::CloseSession,
                                 params_hash_, w.take());
                break;
              }

              default:
                throw FatalWireError{
                    WireCode::Protocol,
                    std::string("unexpected frame ") +
                        frameTypeName(f.header.type)};
            }
        }
    } catch (const NetClosed &) {
        // Peer disconnected: normal end of a session.
        ARK_LOG(Debug, "peer disconnected (session %llu)",
                static_cast<unsigned long long>(session_id));
    } catch (const FatalWireError &e) {
        ARK_LOG(Warn, "session %llu fatal: %s (%s)",
                static_cast<unsigned long long>(session_id),
                e.message.c_str(), wireCodeName(e.code));
        try {
            stream.sendFrame(FrameType::Error, params_hash_,
                             errorBody(e.code, true, e.message));
        } catch (const NetError &) {
        }
    } catch (const WireError &e) {
        // Malformed frame from the peer (truncated body, bad field,
        // oversized frame, ...): report its own code, then close (§8).
        ARK_LOG(Warn, "session %llu malformed frame: %s (%s)",
                static_cast<unsigned long long>(session_id), e.what(),
                wireCodeName(e.code()));
        try {
            stream.sendFrame(FrameType::Error, params_hash_,
                             errorBody(e.code(), true, e.what()));
        } catch (const NetError &) {
        }
    } catch (const NetTimeout &) {
        // The idle reaper: no frame arrived within idle_timeout_ms
        // (or the peer stopped reading within io_timeout_ms). Tell
        // the peer why while the pipe may still carry it, then close
        // — IDLE_TIMEOUT is fatal for the session, a reconnect
        // starts a fresh one (§7).
        ARK_LOG(Info, "session %llu reaped (idle timeout)",
                static_cast<unsigned long long>(session_id));
        obs::count(obs::Counter::SessionsReaped);
        try {
            stream.sendFrame(
                FrameType::Error, params_hash_,
                errorBody(WireCode::IdleTimeout, true,
                          "session idle past the server's idle "
                          "timeout"));
        } catch (const NetError &) {
        }
    } catch (const NetError &e) {
        // Transport died mid-write; nothing to report to anyone —
        // but worth a diagnostic: this path used to be silent.
        ARK_LOG(Debug, "session %llu transport error: %s",
                static_cast<unsigned long long>(session_id),
                e.what());
    } catch (const std::exception &e) {
        // Anything else (a broken promise during teardown, ...) is an
        // execution failure as far as the peer is concerned.
        ARK_LOG(Warn, "session %llu execution error: %s",
                static_cast<unsigned long long>(session_id),
                e.what());
        try {
            stream.sendFrame(
                FrameType::Error, params_hash_,
                errorBody(WireCode::ExecFailed, true, e.what()));
        } catch (const NetError &) {
        }
    }
    closeSession();
    obs::gaugeSet(obs::Gauge::ActiveSessions,
                  static_cast<i64>(active_sessions_.load()));
    stream.shutdownBoth();
}

} // namespace ark
