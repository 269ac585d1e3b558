#include "net/socket.h"

#include <algorithm>
#include <arpa/inet.h>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <thread>
#include <unistd.h>

#include "fault/fault.h"

namespace ark {

namespace {

/** Injected-delay helper for the RecvDelay / SendDelay sites. */
void
faultDelay()
{
    const u64 us = fault::FaultInjector::global().delayMicros();
    if (us > 0)
        std::this_thread::sleep_for(std::chrono::microseconds(us));
}

[[noreturn]] void
sysError(const std::string &what)
{
    throw NetError(what + ": " + std::strerror(errno));
}

/** Resolve @p addr (dotted quad fast path, else getaddrinfo). */
sockaddr_in
resolve(const std::string &addr, u16 port)
{
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    if (inet_pton(AF_INET, addr.c_str(), &sa.sin_addr) == 1)
        return sa;
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *res = nullptr;
    const int rc = getaddrinfo(addr.c_str(), nullptr, &hints, &res);
    if (rc != 0 || res == nullptr)
        throw NetError("cannot resolve '" + addr +
                       "': " + gai_strerror(rc));
    sa.sin_addr =
        reinterpret_cast<sockaddr_in *>(res->ai_addr)->sin_addr;
    freeaddrinfo(res);
    return sa;
}

} // namespace

Socket &
Socket::operator=(Socket &&o) noexcept
{
    if (this != &o) {
        close();
        fd_ = o.fd_;
        o.fd_ = -1;
    }
    return *this;
}

void
Socket::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
Socket::shutdownBoth()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

TcpStream
TcpStream::connect(const std::string &addr, u16 port)
{
    const sockaddr_in sa = resolve(addr, port);
    Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
    if (!sock.valid())
        sysError("socket");
    // Frames are written whole and the protocol is request/response:
    // Nagle only adds latency here.
    const int one = 1;
    ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one,
                 sizeof(one));
    if (::connect(sock.fd(),
                  reinterpret_cast<const sockaddr *>(&sa),
                  sizeof(sa)) != 0)
        sysError("connect to " + addr + ":" + std::to_string(port));
    return TcpStream(std::move(sock));
}

void
TcpStream::sendAll(const void *data, size_t n)
{
    sendSpans(data, n, nullptr, 0);
}

void
TcpStream::sendSpans(const void *head, size_t head_len, const void *tail,
                     size_t tail_len)
{
    iovec spans[2] = {{const_cast<void *>(head), head_len},
                      {const_cast<void *>(tail), tail_len}};
    iovec *iov = spans;
    size_t count = 2;
    size_t left = head_len + tail_len;
    while (left > 0) {
        while (iov->iov_len == 0) {
            ++iov;
            --count;
        }
        size_t chunk = left;
        if (fault::faultsEnabled()) {
            auto &fi = fault::FaultInjector::global();
            if (fi.shouldInject(fault::Site::SendReset)) {
                sock_.shutdownBoth();
                throw NetClosed();
            }
            if (fi.shouldInject(fault::Site::SendDelay))
                faultDelay();
            if (fi.shouldInject(fault::Site::SendShort))
                chunk = 1;
        }
        // A short send writes a prefix of the first unsent span only.
        iovec prefix{iov->iov_base, std::min(chunk, iov->iov_len)};
        msghdr msg{};
        msg.msg_iov = chunk < left ? &prefix : iov;
        msg.msg_iovlen = chunk < left ? 1 : count;
        const ssize_t w = ::sendmsg(sock_.fd(), &msg, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                throw NetTimeout("send timed out");
            if (errno == EPIPE || errno == ECONNRESET)
                throw NetClosed();
            sysError("send");
        }
        left -= static_cast<size_t>(w);
        for (size_t done = static_cast<size_t>(w); done > 0;) {
            const size_t step = std::min(done, iov->iov_len);
            iov->iov_base = static_cast<u8 *>(iov->iov_base) + step;
            iov->iov_len -= step;
            done -= step;
            if (iov->iov_len == 0 && done > 0) {
                ++iov;
                --count;
            }
        }
    }
}

void
TcpStream::recvAll(void *out, size_t n)
{
    u8 *p = static_cast<u8 *>(out);
    while (n > 0) {
        size_t chunk = n;
        if (fault::faultsEnabled()) {
            auto &fi = fault::FaultInjector::global();
            if (fi.shouldInject(fault::Site::RecvReset)) {
                sock_.shutdownBoth();
                throw NetClosed();
            }
            if (fi.shouldInject(fault::Site::RecvDelay))
                faultDelay();
            if (fi.shouldInject(fault::Site::RecvShort))
                chunk = 1;
        }
        const ssize_t r = ::recv(sock_.fd(), p, chunk, 0);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                throw NetTimeout("recv timed out");
            if (errno == ECONNRESET)
                throw NetClosed();
            sysError("recv");
        }
        if (r == 0)
            throw NetClosed();
        p += r;
        n -= static_cast<size_t>(r);
    }
}

namespace {

void
setSockTimeout(int fd, int opt, u64 ms, const char *what)
{
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(ms / 1000);
    tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
    if (::setsockopt(fd, SOL_SOCKET, opt, &tv, sizeof(tv)) != 0)
        sysError(what);
}

} // namespace

void
TcpStream::setRecvTimeoutMs(u64 ms)
{
    setSockTimeout(sock_.fd(), SO_RCVTIMEO, ms, "setsockopt(SO_RCVTIMEO)");
}

void
TcpStream::setSendTimeoutMs(u64 ms)
{
    setSockTimeout(sock_.fd(), SO_SNDTIMEO, ms, "setsockopt(SO_SNDTIMEO)");
}

void
TcpStream::sendFrame(FrameType type, u64 params_hash,
                     const std::vector<u8> &body)
{
    const auto header = encodeFrameHeader(type, params_hash, body.size());
    sendSpans(header.data(), header.size(), body.data(), body.size());
}

TcpStream::Frame
TcpStream::recvFrame(u64 max_frame_bytes)
{
    u8 header[kWireHeaderBytes];
    recvAll(header, sizeof(header));
    Frame f;
    f.header = decodeFrameHeader(header, max_frame_bytes);
    f.body.resize(static_cast<size_t>(f.header.body_len));
    if (!f.body.empty())
        recvAll(f.body.data(), f.body.size());
    return f;
}

TcpListener::TcpListener(const std::string &addr, u16 port)
{
    const sockaddr_in sa = resolve(addr, port);
    sock_ = Socket(::socket(AF_INET, SOCK_STREAM, 0));
    if (!sock_.valid())
        sysError("socket");
    const int one = 1;
    ::setsockopt(sock_.fd(), SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    if (::bind(sock_.fd(), reinterpret_cast<const sockaddr *>(&sa),
               sizeof(sa)) != 0)
        sysError("bind " + addr + ":" + std::to_string(port));
    if (::listen(sock_.fd(), 16) != 0)
        sysError("listen");
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(sock_.fd(),
                      reinterpret_cast<sockaddr *>(&bound),
                      &len) != 0)
        sysError("getsockname");
    port_ = ntohs(bound.sin_port);
}

Socket
TcpListener::accept(const std::atomic<bool> &stop)
{
    while (!stop.load()) {
        pollfd pfd{};
        pfd.fd = sock_.fd();
        pfd.events = POLLIN;
        const int rc = ::poll(&pfd, 1, /*timeout_ms=*/100);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            sysError("poll");
        }
        if (rc == 0)
            continue; // timeout: recheck stop
        const int fd = ::accept(sock_.fd(), nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            sysError("accept");
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        return Socket(fd);
    }
    return Socket();
}

} // namespace ark
