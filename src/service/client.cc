#include "service/client.hh"

#include <utility>

#include "checkpoint/archive.hh"

namespace piton::service
{

namespace
{

/** Frame header: magic u32, version u16, type u16, requestId u64,
 *  payloadLen u32, payloadCrc u32. */
constexpr std::size_t kFrameHeaderBytes = 24;

ClientResult
resultFromBody(bool served_from_cache, std::vector<std::uint8_t> body)
{
    ClientResult r;
    r.servedFromCache = served_from_cache;
    r.response = ExperimentResponse::decodeBody(body);
    r.status = r.response.status;
    r.body = std::move(body);
    return r;
}

} // namespace

std::uint64_t
LocalClient::submit(const ExperimentRequest &req)
{
    ExperimentScheduler::Ticket ticket = sched_.submit(req);
    tickets_.emplace(ticket.id, std::move(ticket.result));
    return ticket.id;
}

ClientResult
LocalClient::waitFor(std::uint64_t request_id)
{
    const auto it = tickets_.find(request_id);
    if (it == tickets_.end())
        throw ServiceError("waitFor: unknown request id");
    const std::shared_future<ServeResult> result = std::move(it->second);
    tickets_.erase(it);
    const ServeResult &served = result.get();
    return resultFromBody(served.cacheHit, *served.body);
}

TcpClient::TcpClient(std::uint16_t port, int timeout_ms)
    : sock_(net::connectTcp(port, timeout_ms))
{}

void
TcpClient::sendFrame(const Frame &frame)
{
    const std::vector<std::uint8_t> bytes = encodeFrame(frame);
    net::sendAll(sock_, bytes.data(), bytes.size());
}

Frame
TcpClient::recvFrame()
{
    std::uint8_t header[kFrameHeaderBytes];
    if (!net::recvExact(sock_, header, sizeof(header)))
        throw ServiceError("server closed the connection");
    WireReader r(header, sizeof(header));
    if (r.u32() != kFrameMagic)
        throw ServiceError("bad frame magic from server");
    const std::uint16_t version = r.u16();
    Frame frame;
    frame.type = static_cast<FrameType>(r.u16());
    frame.requestId = r.u64();
    const std::uint32_t len = r.u32();
    const std::uint32_t crc = r.u32();
    if (len > kMaxPayloadBytes)
        throw ServiceError("oversized frame from server");
    frame.payload.resize(len);
    if (len > 0 && !net::recvExact(sock_, frame.payload.data(), len))
        throw ServiceError("server closed mid-frame");
    if (ckpt::crc32(frame.payload.data(), frame.payload.size()) != crc)
        throw ServiceError("frame CRC mismatch from server");
    // A VersionError frame is decodable regardless of the version in
    // its header (frozen payload layout) — surface it typed so callers
    // know reconnecting won't help.
    if (frame.type == FrameType::VersionError) {
        const VersionInfo info = decodeVersionError(frame.payload);
        throw VersionMismatchError(info.serverVersion, kWireVersion,
                                   frame.requestId);
    }
    if (version != kWireVersion)
        throw VersionMismatchError(version, kWireVersion,
                                   frame.requestId);
    return frame;
}

Frame
TcpClient::awaitFrame(FrameType type, std::uint64_t request_id)
{
    while (true) {
        Frame frame = recvFrame();
        if (frame.type == type && frame.requestId == request_id)
            return frame;
        if (frame.type == FrameType::Response) {
            stashed_.emplace(frame.requestId, std::move(frame));
            continue;
        }
        throw ServiceError("unexpected frame type from server");
    }
}

std::uint64_t
TcpClient::submit(const ExperimentRequest &req)
{
    const std::uint64_t id = nextRequestId_++;
    Frame frame;
    frame.type = FrameType::Request;
    frame.requestId = id;
    WireWriter w;
    req.encode(w);
    frame.payload = w.take();
    sendFrame(frame);
    return id;
}

ClientResult
TcpClient::waitFor(std::uint64_t request_id)
{
    Frame frame;
    auto it = stashed_.find(request_id);
    if (it != stashed_.end()) {
        frame = std::move(it->second);
        stashed_.erase(it);
    } else {
        frame = awaitFrame(FrameType::Response, request_id);
    }
    ResponseEnvelope env = decodeResponseEnvelope(frame.payload);
    return resultFromBody(env.servedFromCache, std::move(env.body));
}

void
TcpClient::cancel(std::uint64_t request_id)
{
    Frame frame;
    frame.type = FrameType::Cancel;
    frame.requestId = request_id;
    sendFrame(frame);
}

void
TcpClient::ping()
{
    const std::uint64_t id = nextRequestId_++;
    Frame frame;
    frame.type = FrameType::Ping;
    frame.requestId = id;
    sendFrame(frame);
    awaitFrame(FrameType::Pong, id);
}

WorkerStats
TcpClient::workerStats()
{
    const std::uint64_t id = nextRequestId_++;
    Frame frame;
    frame.type = FrameType::StatsQuery;
    frame.requestId = id;
    sendFrame(frame);
    const Frame reply = awaitFrame(FrameType::StatsReply, id);
    return decodeWorkerStats(reply.payload);
}

SchedulerMetrics
TcpClient::stats()
{
    return workerStats().metrics;
}

void
TcpClient::shutdownServer()
{
    const std::uint64_t id = nextRequestId_++;
    Frame frame;
    frame.type = FrameType::Shutdown;
    frame.requestId = id;
    sendFrame(frame);
    awaitFrame(FrameType::ShutdownAck, id);
}

} // namespace piton::service
