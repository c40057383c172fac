/**
 * @file
 * TCP front end of the experiment service (`piton-served`).
 *
 * One poll()-driven I/O thread owns the listening socket, every client
 * connection, and a self-pipe wakeup; experiment execution happens on
 * the scheduler's worker pool.  The I/O thread therefore never blocks
 * on simulation, and workers never touch sockets: completions are
 * pushed through a queue + wakeup back to the poll loop, which frames
 * and writes the response on the originating connection.
 *
 * Per-connection state is a FrameParser (input), an output byte queue
 * (partial writes survive), and the set of in-flight request ids (for
 * Cancel routing and for dropping responses to closed connections).
 *
 * Shutdown: stop() — or a Shutdown frame from any client — stops
 * accepting, lets in-flight requests finish (drain), flushes pending
 * output, then closes.  A Shutdown frame is acknowledged with
 * ShutdownAck before the listener closes, so the requesting client can
 * confirm graceful termination.
 */

#ifndef PITON_SERVICE_SERVER_HH
#define PITON_SERVICE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/net.hh"
#include "service/scheduler.hh"
#include "service/wire.hh"

namespace piton::service
{

struct ServerConfig
{
    /** 0 = ephemeral; read the resolved port from port(). */
    std::uint16_t port = 0;
    /** Identity reported in StatsReply.  Empty = "worker-<port>" once
     *  bound. */
    std::string workerId;
    SchedulerConfig scheduler;
};

class ExperimentServer
{
  public:
    explicit ExperimentServer(ServerConfig cfg = {});
    ~ExperimentServer();

    ExperimentServer(const ExperimentServer &) = delete;
    ExperimentServer &operator=(const ExperimentServer &) = delete;

    /** Bind + start the I/O thread.  Throws net::NetError on bind
     *  failure. */
    void start();

    /** Graceful stop: reject new connections, drain in-flight work,
     *  flush responses, join the I/O thread.  Idempotent; safe from
     *  any thread (including a signal-triggered caller via notify). */
    void stop();

    /** Async stop request (signal-safe apart from the atomic+pipe
     *  write): the I/O thread initiates the same graceful sequence. */
    void requestStop();

    /** Block until the server stops — via requestStop(), stop(), or a
     *  client Shutdown frame.  Does not itself request a stop. */
    void wait();

    /** Resolved listening port (valid after start()). */
    std::uint16_t port() const { return port_; }

    bool running() const { return running_.load(std::memory_order_acquire); }

    ExperimentScheduler &scheduler() { return scheduler_; }

  private:
    struct Connection;
    struct Completion
    {
        std::uint64_t connId = 0;
        std::uint64_t requestId = 0;
        ServeResult result;
    };

    void ioLoop();
    void acceptPending();
    bool handleReadable(Connection &conn);
    bool handleFrame(Connection &conn, Frame frame);
    void flushCompletions();
    bool writePending(Connection &conn);
    void enqueueFrame(Connection &conn, const Frame &frame);
    /** Queue the Response frame of `request_id`: envelope + body. */
    void respond(Connection &conn, std::uint64_t request_id,
                 bool served_from_cache,
                 const std::vector<std::uint8_t> &body);

    ServerConfig cfg_;
    ExperimentScheduler scheduler_;

    net::Socket listener_;
    std::uint16_t port_ = 0;
    net::Wakeup wakeup_;
    std::thread ioThread_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopRequested_{false};

    std::uint64_t nextConnId_ = 1; ///< I/O thread only
    std::vector<std::unique_ptr<Connection>> conns_; ///< I/O thread only

    std::mutex completionsMutex_;
    std::vector<Completion> completions_;
};

} // namespace piton::service

#endif // PITON_SERVICE_SERVER_HH
