/**
 * @file
 * Minimal POSIX TCP transport under the wire protocol: RAII sockets,
 * length-prefixed frame send/receive, and a poll-based listener that
 * shuts down cleanly.
 *
 * This layer moves bytes; it knows the §2 envelope (docs/
 * wire_format.md) only well enough to read a header, validate it via
 * decodeFrameHeader, and then read exactly body_len more bytes. All
 * frame *semantics* live in net/wire_server.h and net/wire_client.h.
 */

#pragma once

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "wire/wire_format.h"

namespace ark {

/** A transport failure (socket syscall error). */
class NetError : public std::runtime_error
{
  public:
    explicit NetError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** The peer closed the connection (orderly EOF mid-read counts:
 *  frames are atomic, so a partial frame is a close, not a frame). */
class NetClosed : public NetError
{
  public:
    NetClosed() : NetError("peer closed the connection") {}
};

/** A socket-level deadline fired (SO_RCVTIMEO / SO_SNDTIMEO set via
 *  setRecvTimeoutMs / setSendTimeoutMs elapsed mid-I/O). Distinct from
 *  NetClosed: the connection is still up, the peer is just slow — the
 *  server's idle reaper and the client's per-op deadline both key off
 *  this type (docs/robustness.md). */
class NetTimeout : public NetError
{
  public:
    explicit NetTimeout(const std::string &what) : NetError(what) {}
};

/** RAII file-descriptor owner. Move-only. */
class Socket
{
  public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket() { close(); }

    Socket(Socket &&o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
    Socket &operator=(Socket &&o) noexcept;
    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;

    int fd() const { return fd_; }
    bool valid() const { return fd_ >= 0; }
    void close();
    /** shutdown(SHUT_RDWR): wakes a peer thread blocked in recv()
     *  without racing the fd's lifetime (close() would). */
    void shutdownBoth();

  private:
    int fd_ = -1;
};

/** A connected TCP stream carrying wire frames. */
class TcpStream
{
  public:
    explicit TcpStream(Socket sock) : sock_(std::move(sock)) {}

    /** Connect to @p addr : @p port (numeric IPv4 dotted quad or a
     *  resolvable hostname). Throws NetError on failure. */
    static TcpStream connect(const std::string &addr, u16 port);

    /** Write all @p n bytes (loops over partial writes). */
    void sendAll(const void *data, size_t n);
    /** Read exactly @p n bytes. Throws NetClosed on EOF. */
    void recvAll(void *out, size_t n);

    /** Send one frame: the §2 header and @p body go out as two
     *  spans of one sendmsg, with no copy of the body. */
    void sendFrame(FrameType type, u64 params_hash,
                   const std::vector<u8> &body);

    /** One received frame: validated header + raw body. */
    struct Frame
    {
        FrameHeader header;
        std::vector<u8> body;
    };

    /**
     * Receive one frame. The header is validated (magic, version,
     * type, body_len <= @p max_frame_bytes) BEFORE the body is read,
     * so an oversized frame is rejected without buffering it (§2).
     * Throws WireError on a malformed header, NetClosed on EOF.
     */
    Frame recvFrame(u64 max_frame_bytes);

    /** Unblock a reader in another thread, then release the fd. */
    void shutdownBoth() { sock_.shutdownBoth(); }

    /**
     * Bound a single recv()/send() to @p ms milliseconds (0 = block
     * forever, the default). When the bound elapses the pending
     * recvAll/sendAll throws NetTimeout. The server applies the idle
     * timeout this way; the client applies its per-op deadline.
     */
    void setRecvTimeoutMs(u64 ms);
    void setSendTimeoutMs(u64 ms);

    int fd() const { return sock_.fd(); }

  private:
    /** Write @p head then @p tail. Each loop iteration takes the same
     *  fault decisions as one send, so seeded schedules replay. */
    void sendSpans(const void *head, size_t head_len, const void *tail,
                   size_t tail_len);

    Socket sock_;
};

/** A listening TCP socket with stop-aware accept. */
class TcpListener
{
  public:
    /** Bind @p addr : @p port (0 = ephemeral) and listen. Throws
     *  NetError on failure (address in use, bad address, ...). */
    TcpListener(const std::string &addr, u16 port);

    /** The actually-bound port (resolves port 0). */
    u16 port() const { return port_; }

    /**
     * Accept one connection, polling so the call wakes up and
     * rechecks @p stop every ~100 ms. Returns an invalid Socket when
     * stopped. Throws NetError on listener failure.
     */
    Socket accept(const std::atomic<bool> &stop);

    void close() { sock_.close(); }

  private:
    Socket sock_;
    u16 port_ = 0;
};

} // namespace ark
