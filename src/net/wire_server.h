/**
 * @file
 * The network serving front-end: a TCP server speaking the ARK wire
 * protocol (docs/wire_format.md) in front of a BatchServer.
 *
 * One WireServer owns one listening socket and a thread per client
 * connection. A connection is a session: after the §5.1-§5.4 hello
 * exchange (version negotiation, parameter set, workload catalog) the
 * client opens a tenant session, uploads its own evaluation keys —
 * held in an uploaded-mode KeyCache owned by the session, so tenants
 * never share key material — and submits ciphertexts. Submissions
 * route through BatchServer::trySubmitRemote, i.e. through the SAME
 * bounded admission queue and worker pool as in-process traffic; the
 * wire layer adds transport and tenancy, not a second execution
 * path.
 *
 * Error discipline (§7): admission refusals map to typed ERROR frames
 * (QUEUE_FULL is retryable, the session survives; SESSION_LIMIT and
 * SERVER_SHUTDOWN are fatal), execution failures ride back inside
 * RESPONSE frames with their ServeErrorKind mapped to a wire code,
 * and protocol violations (bad params hash, malformed body, frames
 * out of order) are fatal ERROR frames followed by a close.
 *
 * docs/serving.md walks the whole lifecycle; tests/test_net_serving
 * pins loopback bit-parity against in-process execution.
 */

#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/socket.h"
#include "obs/stats_emitter.h"
#include "serve/batch_server.h"
#include "wire/serializer.h"
#include "wire/stats_frame.h"

namespace ark {

/** TCP front-end serving the wire protocol for one BatchServer. */
class WireServer
{
  public:
    /**
     * Bind the address/port in @p server 's config (BatchServerConfig
     * ::listen_addr / listen_port; port 0 picks an ephemeral port,
     * reported by port()) and start accepting. The BatchServer must
     * outlive the WireServer.
     */
    explicit WireServer(BatchServer &server);
    ~WireServer();

    WireServer(const WireServer &) = delete;
    WireServer &operator=(const WireServer &) = delete;

    /** The bound port (resolves an ephemeral-port bind). */
    u16 port() const { return port_; }
    const std::string &addr() const { return addr_; }

    /** Sessions currently open (tenant slots in use). */
    size_t activeSessions() const { return active_sessions_.load(); }
    /** Total sessions accepted over the server's lifetime. */
    size_t sessionsOpened() const { return sessions_opened_.load(); }

    /** The live-stats sample a §5.16 STATS frame answers with (also
     *  what the periodic emitter renders). */
    RemoteStats collectStats() const;

    /** Stop accepting, unblock and join every connection thread.
     *  Idempotent; the destructor calls it. */
    void stop();

  private:
    struct Connection
    {
        TcpStream stream;
        std::thread thread;

        explicit Connection(TcpStream s) : stream(std::move(s)) {}
    };

    void acceptLoop();
    void serveConnection(Connection &conn);

    BatchServer &server_;
    const u64 params_hash_;
    const u64 max_frame_bytes_;
    std::string addr_;
    u16 port_ = 0;

    TcpListener listener_;
    std::atomic<bool> stop_{false};
    std::thread accept_thread_;

    std::mutex conns_m_;
    std::vector<std::unique_ptr<Connection>> conns_;

    std::atomic<size_t> active_sessions_{0};
    std::atomic<size_t> sessions_opened_{0};
    std::atomic<u64> next_session_id_{1};

    /** Uptime epoch for STATS frames. */
    const std::chrono::steady_clock::time_point start_tp_ =
        std::chrono::steady_clock::now();
    /** Live when ARK_STATS_INTERVAL_MS is set: prints collectStats()
     *  to stderr every interval. */
    std::unique_ptr<obs::StatsEmitter> emitter_;
};

} // namespace ark
