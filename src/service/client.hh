/**
 * @file
 * Client side of the experiment service.
 *
 * Two transports behind one interface:
 *
 *  - LocalClient: in-process, wraps an ExperimentScheduler directly.
 *    No sockets, no serialization of the transport envelope — but the
 *    response *body* still round-trips through the wire codec, so a
 *    local result is byte-identical to the same request served over
 *    TCP (tests assert this).
 *
 *  - TcpClient: blocking loopback connection to piton-served.  One
 *    connection can pipeline many requests (submit()/waitFor() with
 *    client-chosen request ids); run() is the submit-and-wait
 *    convenience.  Out-of-order responses are stashed until their id
 *    is waited on.
 */

#ifndef PITON_SERVICE_CLIENT_HH
#define PITON_SERVICE_CLIENT_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/net.hh"
#include "service/request.hh"
#include "service/response.hh"
#include "service/scheduler.hh"
#include "service/wire.hh"

namespace piton::service
{

/** A completed request as seen by a client. */
struct ClientResult
{
    Status status = Status::Error;
    /** True when the server answered from its result cache. */
    bool servedFromCache = false;
    /** Raw encoded body — the byte-identity unit. */
    std::vector<std::uint8_t> body;
    /** Decoded view of `body`. */
    ExperimentResponse response;
};

/** Transport-agnostic client interface. */
class Client
{
  public:
    virtual ~Client() = default;
    virtual ClientResult run(const ExperimentRequest &req) = 0;
    virtual SchedulerMetrics stats() = 0;
};

/** In-process client over a shared scheduler. */
class LocalClient : public Client
{
  public:
    explicit LocalClient(ExperimentScheduler &sched) : sched_(sched) {}

    ClientResult run(const ExperimentRequest &req) override;
    SchedulerMetrics stats() override { return sched_.metrics(); }

    ExperimentScheduler &scheduler() { return sched_; }

  private:
    ExperimentScheduler &sched_;
};

/** Blocking TCP client (loopback). */
class TcpClient : public Client
{
  public:
    /** Connects immediately; throws net::NetError on failure. */
    explicit TcpClient(std::uint16_t port, int timeout_ms = 5000);

    ClientResult run(const ExperimentRequest &req) override;
    SchedulerMetrics stats() override;

    /** Full v3 stats: worker identity + metrics. */
    WorkerStats workerStats();

    /** Send a request without waiting; returns its request id. */
    std::uint64_t submit(const ExperimentRequest &req);
    /** Block until the response for `request_id` arrives. */
    ClientResult waitFor(std::uint64_t request_id);
    /** Best-effort cancellation of an in-flight request. */
    void cancel(std::uint64_t request_id);

    /** Round-trip liveness probe. */
    void ping();
    /** Graceful server shutdown; returns once ShutdownAck arrives. */
    void shutdownServer();

  private:
    void sendFrame(const Frame &frame);
    /** Read one frame off the wire (blocking).  Throws ServiceError on
     *  protocol violations or unexpected close, VersionMismatchError
     *  when the server speaks another version (including decoding its
     *  typed VersionError reply, whatever version stamps it). */
    Frame recvFrame();
    /** Read frames until one of `type` with `request_id` arrives,
     *  stashing other Response frames for later waitFor() calls. */
    Frame awaitFrame(FrameType type, std::uint64_t request_id);

    net::Socket sock_;
    std::uint64_t nextRequestId_ = 1;
    std::unordered_map<std::uint64_t, Frame> stashed_;
};

} // namespace piton::service

#endif // PITON_SERVICE_CLIENT_HH
