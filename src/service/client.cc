#include "service/client.hh"

#include <utility>

namespace piton::service
{

namespace
{

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
    std::uint8_t raw[FrameHeader::kBytes];
    if (!net::recvExact(sock_, raw, sizeof(raw)))
        throw ServiceError("server closed the connection");
    const FrameHeader h = parseFrameHeader(raw);
    Frame frame;
    frame.type = h.type;
    frame.requestId = h.requestId;
    frame.payload.resize(h.payloadLen);
    if (h.payloadLen > 0
        && !net::recvExact(sock_, frame.payload.data(), h.payloadLen))
        throw ServiceError("server closed mid-frame");
    h.checkPayload(frame.payload);
    // A VersionError frame is decodable regardless of the version in
    // its header (frozen payload layout) — surface it typed so callers
    // know reconnecting won't help.
    if (frame.type == FrameType::VersionError) {
        const VersionInfo info = decodeVersionError(frame.payload);
        throw VersionMismatchError(info.serverVersion, kWireVersion,
                                   frame.requestId);
    }
    if (h.version != kWireVersion)
        throw VersionMismatchError(h.version, kWireVersion,
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
    WireWriter w;
    req.encode(w);
    sendFrame({FrameType::Request, id, w.take()});
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
    sendFrame({FrameType::Cancel, request_id, {}});
}

Frame
TcpClient::exchange(FrameType type, FrameType reply)
{
    const std::uint64_t id = nextRequestId_++;
    sendFrame({type, id, {}});
    return awaitFrame(reply, id);
}

void
TcpClient::ping()
{
    exchange(FrameType::Ping, FrameType::Pong);
}

WorkerStats
TcpClient::workerStats()
{
    return decodeWorkerStats(
        exchange(FrameType::StatsQuery, FrameType::StatsReply).payload);
}

SchedulerMetrics
TcpClient::stats()
{
    return workerStats().metrics;
}

void
TcpClient::shutdownServer()
{
    exchange(FrameType::Shutdown, FrameType::ShutdownAck);
}

} // namespace piton::service
