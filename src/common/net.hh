/**
 * @file
 * Minimal TCP/poll utilities for the experiment service (loopback
 * only).  The service binds 127.0.0.1 exclusively: it is a local
 * experiment server, not an internet-facing daemon, so there is no
 * TLS, no auth, and no reason to accept remote connections.
 *
 * Everything is nonblocking-friendly: the server's poll loop uses
 * nonblocking sockets plus a self-pipe Wakeup so worker threads can
 * interrupt a poll() sleep when a response becomes ready.
 */

#ifndef PITON_COMMON_NET_HH
#define PITON_COMMON_NET_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace piton::net
{

/** Thrown on socket-layer failures (connect refused, bind in use...). */
class NetError : public std::runtime_error
{
  public:
    explicit NetError(const std::string &what) : std::runtime_error(what)
    {}
};

/** RAII file descriptor. */
class Socket
{
  public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket() { close(); }

    Socket(Socket &&other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
    Socket &
    operator=(Socket &&other) noexcept
    {
        if (this != &other) {
            close();
            fd_ = other.fd_;
            other.fd_ = -1;
        }
        return *this;
    }
    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;

    int fd() const { return fd_; }
    bool valid() const { return fd_ >= 0; }
    /** Release ownership without closing. */
    int release();
    void close();

  private:
    int fd_ = -1;
};

/** Listening socket on 127.0.0.1:`port` (port 0 = ephemeral).
 *  Nonblocking, SO_REUSEADDR. */
Socket listenTcp(std::uint16_t port, int backlog = 64);

/** The local port a bound socket ended up on (resolves port 0). */
std::uint16_t boundPort(const Socket &sock);

/** Blocking connect to 127.0.0.1:`port`; the returned socket is in
 *  blocking mode (clients are synchronous). */
Socket connectTcp(std::uint16_t port, int timeout_ms = 5000);

/** Accept one pending connection; invalid Socket if none pending. */
Socket acceptConnection(const Socket &listener);

/** Set O_NONBLOCK. */
void setNonBlocking(int fd);

/**
 * Blocking-socket helpers for the synchronous client: send the whole
 * buffer / read exactly `len` bytes.  recvExact returns false on a
 * clean peer close at a message boundary (0 bytes read); any partial
 * read or error throws.
 */
void sendAll(const Socket &sock, const void *data, std::size_t len);
bool recvExact(const Socket &sock, void *data, std::size_t len);

/** poll() a single fd for readability; true if readable before the
 *  timeout. */
bool waitReadable(int fd, int timeout_ms);

/**
 * Self-pipe wakeup for poll loops: any thread may notify(); the poll
 * thread includes fd() in its read set and calls drain() when it fires.
 */
class Wakeup
{
  public:
    Wakeup();
    ~Wakeup();
    Wakeup(const Wakeup &) = delete;
    Wakeup &operator=(const Wakeup &) = delete;

    int fd() const { return readFd_.fd(); }
    void notify();
    void drain();

  private:
    Socket readFd_;
    Socket writeFd_;
};

} // namespace piton::net

#endif // PITON_COMMON_NET_HH
