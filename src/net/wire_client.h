/**
 * @file
 * Client library for the ARK wire protocol (docs/wire_format.md) —
 * the remote half of the OpenFHE-style flow: connect, receive the
 * server's parameter set, generate keys locally, upload the evks
 * (seed-compressed, §6), encrypt, submit, decrypt.
 *
 * The constructor performs the §5.1-§5.4 hello exchange and builds a
 * CkksContext from the received PARAMS frame, so a WireClient is
 * self-contained: callers encode/encrypt against context() and never
 * need out-of-band parameter agreement. Every frame after the hello
 * is bound to the negotiated parameter-set hash; a mismatch on either
 * side is a fatal PARAMS_MISMATCH (§7).
 *
 * Error handling: retryable refusals (QUEUE_FULL, SHED,
 * UNKNOWN_WORKLOAD, DEADLINE_EXCEEDED) surface as a failed
 * SubmitOutcome with the wire code; fatal ERROR frames and malformed
 * server frames throw WireError; transport failures throw NetError
 * (NetTimeout when a per-op deadline set via setOpTimeoutMs lapses).
 *
 * Resilience (docs/robustness.md): the client remembers everything it
 * told the server — tenant name, uploaded eval keys — so
 * reconnect() can rebuild a dead session from scratch: fresh TCP
 * connect, hello re-exchange (the parameter-set hash must still
 * match), session reopen, key re-upload. submitWithRetry() drives
 * that loop automatically: retryable refusals back off with
 * decorrelated jitter, transport faults reconnect first, and every
 * attempt carries the same client-chosen request id so the attempts
 * are correlatable server-side. Workload evaluation is pure
 * (deterministic HE on immutable keys), so a re-executed retry is
 * idempotent by construction — equal inputs produce bit-identical
 * RESPONSE bodies. docs/serving.md §4 walks a full session.
 */

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ckks/context.h"
#include "net/socket.h"
#include "wire/serializer.h"
#include "wire/stats_frame.h"

namespace ark {

/** One entry of the server's §5.4 workload catalog. */
struct RemoteWorkload
{
    std::string name;
    size_t op_count = 0;
    /** Levels a request consumes — the input must be encrypted at
     *  least this high. */
    size_t levels_needed = 0;
    /** Rotation amounts the workload references: exactly the evks a
     *  tenant must upload before submitting it. */
    std::vector<i64> rotations;
};

/** Backoff/retry knobs for WireClient::submitWithRetry. */
struct RetryPolicy
{
    /** Total tries including the first (1 = no retry). */
    size_t max_attempts = 6;
    /** Decorrelated-jitter backoff: sleep is uniform in
     *  [base, prev*3], capped at max (AWS architecture-blog
     *  recipe — retries spread out instead of thundering back). */
    u64 base_backoff_ms = 5;
    u64 max_backoff_ms = 500;
    /** Reconnect + re-establish the session (reconnect()) after a
     *  transport error before the next attempt. When false a NetError
     *  propagates to the caller on first occurrence. */
    bool reconnect = true;
    /** Seed for the deterministic jitter sequence (tests pin it). */
    u64 jitter_seed = 1;
    /** Injectable sleeper for tests; null = real
     *  std::this_thread::sleep_for. Receives milliseconds. */
    std::function<void(u64)> sleep_ms;
};

/** A connected, hello-complete wire-protocol client session. */
class WireClient
{
  public:
    /** Connect and run the hello exchange (§5.1-§5.4). Throws
     *  NetError / WireError on failure. */
    WireClient(const std::string &addr, u16 port,
               const std::string &client_name = "ark-client");
    ~WireClient();

    WireClient(const WireClient &) = delete;
    WireClient &operator=(const WireClient &) = delete;

    /** The server's parameter set (from the PARAMS frame). */
    const CkksParams &params() const { return params_; }
    /** A context built from params() — encode/encrypt against this. */
    const CkksContext &context() const { return *ctx_; }
    /** The §3 hash both sides bind every frame to. */
    u64 boundParamsHash() const { return params_hash_; }

    const std::vector<RemoteWorkload> &workloads() const
    {
        return workloads_;
    }
    size_t serverMaxSessions() const { return server_max_sessions_; }
    u64 serverMaxFrameBytes() const { return server_max_frame_bytes_; }

    /** §5.5: open the tenant session. Returns the session id. */
    u64 openSession(const std::string &tenant_name);
    bool sessionOpen() const { return session_open_; }

    /** Upload one evk (§5.7; seed-compressed when key.seeded). The
     *  returned value is the server-side tenant key footprint in
     *  bytes after the upload (from KEY_ACK §5.9) — what
     *  bench_sharding reports as per-tenant evk cache pressure. */
    u64 uploadMultiplicationKey(const EvalKey &key);
    u64 uploadRotationKey(i64 amount, const EvalKey &key);

    /** Outcome of one §5.12 SUBMIT / §5.19 SUBMIT2. */
    struct SubmitOutcome
    {
        bool ok = false;
        /** §7 code: Ok on success; QueueFull / Shed /
         *  UnknownWorkload / DeadlineExceeded on a retryable refusal
         *  (Shed = the SLO admission controller wants this client to
         *  back off; DeadlineExceeded = the request aged out queued);
         *  the execution-failure codes (MissingKey, LevelExhausted,
         *  ExecFailed) when the request ran and failed — and Shed
         *  again when an admitted request was evicted for
         *  higher-priority work before running. */
        WireCode code = WireCode::Ok;
        std::string error;
        u64 request_id = 0;
        u64 checksum = 0;
        int final_level = -1;
        u64 he_ops = 0;
        double latency_ms = 0;
        bool has_output = false;
        Ciphertext output;
    };

    /** Submit @p input under workload @p workload_index and wait for
     *  the RESPONSE (synchronous, one request in flight per client).
     *  Sends SUBMIT2 (§5.19) when @p deadline_ms or @p request_id is
     *  nonzero, the frozen v1 SUBMIT otherwise. @p deadline_ms is
     *  relative — the server converts to its own clock at receipt, so
     *  client/server clock skew never matters. request_id == 0 lets
     *  the server assign one. */
    SubmitOutcome submit(size_t workload_index,
                         const Ciphertext &input, u64 deadline_ms = 0,
                         u64 request_id = 0);

    /** submit() wrapped in the full recovery loop: retryable refusals
     *  back off (decorrelated jitter) and resubmit under the SAME
     *  request id; transport errors reconnect() first when the policy
     *  allows. Fatal wire errors and hello failures still throw.
     *  Throws the last NetError when every attempt died on transport.
     *  Counts obs ClientRetries per re-attempt. */
    SubmitOutcome submitWithRetry(size_t workload_index,
                                  const Ciphertext &input,
                                  const RetryPolicy &policy = {},
                                  u64 deadline_ms = 0,
                                  u64 request_id = 0);

    /** §5.16: poll the server's live stats (no session needed —
     *  works right after the hello). */
    RemoteStats stats();

    /** Result of one §5.17 PING round trip. */
    struct PingResult
    {
        u64 nonce = 0;     ///< echoed by the server (verified)
        u64 uptime_ms = 0; ///< server-reported time since start
        double rtt_ms = 0; ///< client-measured round-trip time
    };
    /** §5.17: liveness probe. Works pre-session, like stats(). */
    PingResult ping();

    /** Per-operation I/O deadline: every subsequent send/recv that
     *  blocks longer than this throws NetTimeout (0 = wait forever).
     *  Reapplied automatically after reconnect(). */
    void setOpTimeoutMs(u64 ms);

    /** Tear down and rebuild the whole session: fresh TCP connect,
     *  hello re-exchange (throws PARAMS_MISMATCH if the server's
     *  parameter set changed), then — if a session was open — reopen
     *  it and re-upload every key this client ever uploaded, so the
     *  server side is indistinguishable from an unbroken session. */
    void reconnect();
    /** reconnect() invocations so far (tests / diagnostics). */
    size_t reconnects() const { return reconnects_; }

    /** §5.14: close the session (waits for the server's echo). */
    void closeSession();

    /** Drop the connection without the close handshake. */
    void disconnect();

  private:
    /** One remembered §5.7 upload, replayable on reconnect. */
    struct CachedEvalKey
    {
        EvalKeyPurpose purpose;
        u64 galois_elt;
        EvalKey key;
    };

    void connectAndHello();
    void applyOpTimeout();
    u64 openSessionOnWire(const std::string &tenant_name);
    TcpStream::Frame roundTrip(FrameType type,
                               const std::vector<u8> &body);
    u64 keyAck(TcpStream::Frame f);
    u64 uploadEvalKey(EvalKeyPurpose purpose, u64 galois_elt,
                      const EvalKey &key);

    std::string addr_;
    u16 port_ = 0;
    std::string client_name_;
    std::unique_ptr<TcpStream> stream_;
    CkksParams params_;
    std::unique_ptr<CkksContext> ctx_;
    u64 params_hash_ = 0;
    std::vector<RemoteWorkload> workloads_;
    size_t server_max_sessions_ = 0;
    u64 server_max_frame_bytes_ = kDefaultMaxFrameBytes;
    u64 session_id_ = 0;
    bool session_open_ = false;
    std::string tenant_name_;
    u64 op_timeout_ms_ = 0;
    size_t reconnects_ = 0;
    u64 next_ping_nonce_ = 1;
    u64 next_request_id_ = 0;
    std::vector<CachedEvalKey> cached_evks_;
};

} // namespace ark
