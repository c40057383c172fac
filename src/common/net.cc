#include "common/net.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace piton::net
{

namespace
{

[[noreturn]] void
throwErrno(const std::string &what)
{
    throw NetError(what + ": " + std::strerror(errno));
}

sockaddr_in
loopbackAddr(std::uint16_t port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return addr;
}

} // namespace

int
Socket::release()
{
    const int fd = fd_;
    fd_ = -1;
    return fd;
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
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
        throwErrno("fcntl(O_NONBLOCK)");
}

Socket
listenTcp(std::uint16_t port, int backlog)
{
    Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
    if (!sock.valid())
        throwErrno("socket");
    const int one = 1;
    ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    const sockaddr_in addr = loopbackAddr(port);
    if (::bind(sock.fd(), reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) < 0)
        throwErrno("bind 127.0.0.1:" + std::to_string(port));
    if (::listen(sock.fd(), backlog) < 0)
        throwErrno("listen");
    setNonBlocking(sock.fd());
    return sock;
}

std::uint16_t
boundPort(const Socket &sock)
{
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(sock.fd(), reinterpret_cast<sockaddr *>(&addr),
                      &len) < 0)
        throwErrno("getsockname");
    return ntohs(addr.sin_port);
}

Socket
connectTcp(std::uint16_t port, int timeout_ms)
{
    Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
    if (!sock.valid())
        throwErrno("socket");
    setNonBlocking(sock.fd());
    const sockaddr_in addr = loopbackAddr(port);
    int rc = ::connect(sock.fd(), reinterpret_cast<const sockaddr *>(&addr),
                       sizeof(addr));
    if (rc < 0 && errno != EINPROGRESS)
        throwErrno("connect 127.0.0.1:" + std::to_string(port));
    if (rc < 0) {
        pollfd pfd{sock.fd(), POLLOUT, 0};
        rc = ::poll(&pfd, 1, timeout_ms);
        if (rc == 0)
            throw NetError("connect timeout to 127.0.0.1:"
                           + std::to_string(port));
        if (rc < 0)
            throwErrno("poll(connect)");
        int err = 0;
        socklen_t len = sizeof(err);
        if (::getsockopt(sock.fd(), SOL_SOCKET, SO_ERROR, &err, &len) < 0)
            throwErrno("getsockopt(SO_ERROR)");
        if (err != 0) {
            errno = err;
            throwErrno("connect 127.0.0.1:" + std::to_string(port));
        }
    }
    // Clients are synchronous: back to blocking mode.
    const int flags = ::fcntl(sock.fd(), F_GETFL, 0);
    ::fcntl(sock.fd(), F_SETFL, flags & ~O_NONBLOCK);
    const int one = 1;
    ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return sock;
}

Socket
acceptConnection(const Socket &listener)
{
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR
            || errno == ECONNABORTED)
            return Socket{};
        throwErrno("accept");
    }
    Socket sock(fd);
    setNonBlocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return sock;
}

void
sendAll(const Socket &sock, const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    while (len > 0) {
        const ssize_t n = ::send(sock.fd(), p, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throwErrno("send");
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
}

bool
recvExact(const Socket &sock, void *data, std::size_t len)
{
    auto *p = static_cast<std::uint8_t *>(data);
    std::size_t got = 0;
    while (got < len) {
        const ssize_t n = ::recv(sock.fd(), p + got, len - got, 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throwErrno("recv");
        }
        if (n == 0) {
            if (got == 0)
                return false; // clean close at a message boundary
            throw NetError("peer closed mid-message");
        }
        got += static_cast<std::size_t>(n);
    }
    return true;
}

bool
waitReadable(int fd, int timeout_ms)
{
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0 && errno != EINTR)
        throwErrno("poll");
    return rc > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
}

Wakeup::Wakeup()
{
    int fds[2];
    if (::pipe(fds) < 0)
        throwErrno("pipe");
    readFd_ = Socket(fds[0]);
    writeFd_ = Socket(fds[1]);
    setNonBlocking(fds[0]);
    setNonBlocking(fds[1]);
}

Wakeup::~Wakeup() = default;

void
Wakeup::notify()
{
    const char byte = 1;
    // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
    [[maybe_unused]] const ssize_t n =
        ::write(writeFd_.fd(), &byte, 1);
}

void
Wakeup::drain()
{
    char buf[64];
    while (::read(readFd_.fd(), buf, sizeof(buf)) > 0) {
    }
}

} // namespace piton::net
