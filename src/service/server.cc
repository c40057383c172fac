#include "service/server.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <poll.h>
#include <sys/socket.h>
#include <unordered_map>
#include <utility>

#include "common/logging.hh"

namespace piton::service
{

struct ExperimentServer::Connection
{
    std::uint64_t id = 0;
    net::Socket sock;
    FrameParser parser;
    /** Framed bytes awaiting write (outPos consumed from the front
     *  buffer — partial writes pick up where they left off). */
    std::deque<std::vector<std::uint8_t>> outQueue;
    std::size_t outPos = 0;
    /** In-flight request ids → their cancel flags (Cancel routing). */
    std::unordered_map<std::uint64_t, std::shared_ptr<std::atomic<bool>>>
        inflight;
    bool dead = false;
};

ExperimentServer::ExperimentServer(ServerConfig cfg)
    : cfg_(cfg), scheduler_(cfg.scheduler)
{}

ExperimentServer::~ExperimentServer()
{
    stop();
}

void
ExperimentServer::start()
{
    piton_assert(!running_.load(), "server already started");
    listener_ = net::listenTcp(cfg_.port);
    port_ = net::boundPort(listener_);
    if (cfg_.workerId.empty())
        cfg_.workerId = "worker-" + std::to_string(port_);
    running_.store(true, std::memory_order_release);
    ioThread_ = std::thread([this] { ioLoop(); });
    piton_inform("piton-served listening on 127.0.0.1:%u",
                 static_cast<unsigned>(port_));
}

void
ExperimentServer::requestStop()
{
    stopRequested_.store(true, std::memory_order_release);
    wakeup_.notify();
}

void
ExperimentServer::wait()
{
    if (ioThread_.joinable())
        ioThread_.join();
    running_.store(false, std::memory_order_release);
}

void
ExperimentServer::stop()
{
    requestStop();
    wait();
}

void
ExperimentServer::ioLoop()
{
    std::vector<pollfd> fds;
    while (true) {
        flushCompletions();

        const bool draining = stopRequested_.load(std::memory_order_acquire);
        if (draining && listener_.valid())
            listener_.close();

        // Exit once drained: no connection holds an in-flight request
        // or unflushed output.  (Requests whose connection died keep
        // running on the pool; scheduler_.drain() below waits for
        // them.)
        if (draining) {
            bool busy = false;
            for (const auto &conn : conns_)
                busy = busy || !conn->inflight.empty()
                       || !conn->outQueue.empty();
            {
                std::lock_guard<std::mutex> lock(completionsMutex_);
                busy = busy || !completions_.empty();
            }
            if (!busy)
                break;
        }

        fds.clear();
        fds.push_back({wakeup_.fd(), POLLIN, 0});
        if (listener_.valid())
            fds.push_back({listener_.fd(), POLLIN, 0});
        const std::size_t polled_conns = conns_.size();
        for (const auto &conn : conns_) {
            short events = POLLIN;
            if (!conn->outQueue.empty())
                events |= POLLOUT;
            fds.push_back({conn->sock.fd(), events, 0});
        }

        const int n = ::poll(fds.data(),
                             static_cast<nfds_t>(fds.size()), 500);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            piton_warn("server poll failed: %s", std::strerror(errno));
            break;
        }

        std::size_t idx = 0;
        if (fds[idx].revents & POLLIN)
            wakeup_.drain();
        ++idx;
        if (listener_.valid()) {
            if (fds[idx].revents & POLLIN)
                acceptPending();
            ++idx;
        }
        // Only the first `polled_conns` connections have a pollfd:
        // acceptPending() above may have appended fresh connections,
        // and indexing fds by the post-accept count would read past
        // its end and kill newcomers on garbage revents.  They get
        // polled from the next iteration on.
        for (std::size_t c = 0; c < polled_conns; ++c, ++idx) {
            Connection &conn = *conns_[c];
            const short re = fds[idx].revents;
            if (re & (POLLERR | POLLHUP | POLLNVAL)) {
                conn.dead = true;
                continue;
            }
            if ((re & POLLIN) && !handleReadable(conn))
                conn.dead = true;
            if ((re & POLLOUT) && !writePending(conn))
                conn.dead = true;
        }
        conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                    [](const auto &c) { return c->dead; }),
                     conns_.end());
    }

    // Graceful tail: wait for orphaned work, then drop connections.
    scheduler_.drain();
    flushCompletions();
    for (auto &conn : conns_)
        writePending(*conn);
    conns_.clear();
    listener_.close();
}

void
ExperimentServer::acceptPending()
{
    while (true) {
        net::Socket sock = net::acceptConnection(listener_);
        if (!sock.valid())
            return;
        auto conn = std::make_unique<Connection>();
        conn->id = nextConnId_++;
        conn->sock = std::move(sock);
        conns_.push_back(std::move(conn));
    }
}

bool
ExperimentServer::handleReadable(Connection &conn)
{
    std::uint8_t buf[4096];
    while (true) {
        const ssize_t n = ::recv(conn.sock.fd(), buf, sizeof(buf), 0);
        if (n > 0) {
            conn.parser.feed(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n == 0)
            return false; // peer closed
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        return false;
    }
    try {
        Frame frame;
        while (conn.parser.next(frame))
            if (!handleFrame(conn, std::move(frame)))
                return false;
    } catch (const VersionMismatchError &e) {
        // Answer with a typed VersionError the peer can decode: the
        // header is stamped with *its* version so its strict parser
        // accepts the frame, then the connection closes (a version-
        // skewed stream cannot be resynchronized).
        piton_warn("connection %llu speaks wire v%u (this server is "
                   "v%u); replying VersionError and closing",
                   static_cast<unsigned long long>(conn.id),
                   static_cast<unsigned>(e.got()),
                   static_cast<unsigned>(e.want()));
        VersionInfo info;
        info.serverVersion = kWireVersion;
        info.clientVersion = e.got();
        info.message = e.what();
        Frame reply;
        reply.type = FrameType::VersionError;
        reply.requestId = e.requestId();
        reply.payload = encodeVersionError(info);
        conn.outQueue.push_back(encodeFrame(reply, e.got()));
        writePending(conn);
        return false;
    } catch (const ServiceError &e) {
        piton_warn("closing connection %llu on protocol error: %s",
                   static_cast<unsigned long long>(conn.id), e.what());
        return false;
    }
    return true;
}

bool
ExperimentServer::handleFrame(Connection &conn, Frame frame)
{
    switch (frame.type) {
    case FrameType::Request: {
        ExperimentRequest req;
        try {
            WireReader r(frame.payload);
            req = ExperimentRequest::decode(r);
            r.expectEnd();
        } catch (const std::exception &e) {
            ServeResult bad;
            bad.status = Status::Error;
            bad.body = std::make_shared<const std::vector<std::uint8_t>>(
                ExperimentResponse::failure(Status::Error,
                                            Kind::MeasurePower, e.what())
                    .encodeBody());
            Frame resp;
            resp.type = FrameType::Response;
            resp.requestId = frame.requestId;
            resp.payload = encodeResponseEnvelope(false, *bad.body);
            enqueueFrame(conn, resp);
            return true;
        }
        if (stopRequested_.load(std::memory_order_acquire)) {
            Frame resp;
            resp.type = FrameType::Response;
            resp.requestId = frame.requestId;
            resp.payload = encodeResponseEnvelope(
                false, ExperimentResponse::failure(Status::Shed, req.kind,
                                                   "server shutting down")
                           .encodeBody());
            enqueueFrame(conn, resp);
            return true;
        }
        const std::uint64_t conn_id = conn.id;
        const std::uint64_t request_id = frame.requestId;
        ExperimentScheduler::Ticket ticket = scheduler_.submit(
            req, [this, conn_id, request_id](const ServeResult &r) {
                {
                    std::lock_guard<std::mutex> lock(completionsMutex_);
                    completions_.push_back({conn_id, request_id, r});
                }
                wakeup_.notify();
            });
        conn.inflight.emplace(request_id, ticket.cancel);
        return true;
    }
    case FrameType::Cancel: {
        auto it = conn.inflight.find(frame.requestId);
        if (it != conn.inflight.end() && it->second)
            it->second->store(true, std::memory_order_relaxed);
        return true;
    }
    case FrameType::Ping: {
        Frame pong;
        pong.type = FrameType::Pong;
        pong.requestId = frame.requestId;
        enqueueFrame(conn, pong);
        return true;
    }
    case FrameType::StatsQuery: {
        WorkerStats s;
        s.workerId = cfg_.workerId;
        s.threads = scheduler_.threadCount();
        s.metrics = scheduler_.metrics();
        Frame reply;
        reply.type = FrameType::StatsReply;
        reply.requestId = frame.requestId;
        reply.payload = encodeWorkerStats(s);
        enqueueFrame(conn, reply);
        return true;
    }
    case FrameType::Shutdown: {
        Frame ack;
        ack.type = FrameType::ShutdownAck;
        ack.requestId = frame.requestId;
        enqueueFrame(conn, ack);
        stopRequested_.store(true, std::memory_order_release);
        return true;
    }
    case FrameType::Response:
    case FrameType::Pong:
    case FrameType::StatsReply:
    case FrameType::ShutdownAck:
    case FrameType::VersionError:
        break; // server-to-client types are invalid from a client
    }
    piton_warn("closing connection %llu: unexpected frame type %u",
               static_cast<unsigned long long>(conn.id),
               static_cast<unsigned>(frame.type));
    return false;
}

void
ExperimentServer::flushCompletions()
{
    std::vector<Completion> done;
    {
        std::lock_guard<std::mutex> lock(completionsMutex_);
        done.swap(completions_);
    }
    for (Completion &c : done) {
        Connection *conn = nullptr;
        for (const auto &candidate : conns_)
            if (candidate->id == c.connId && !candidate->dead) {
                conn = candidate.get();
                break;
            }
        if (conn == nullptr)
            continue; // connection closed before the result arrived
        conn->inflight.erase(c.requestId);
        Frame resp;
        resp.type = FrameType::Response;
        resp.requestId = c.requestId;
        resp.payload =
            encodeResponseEnvelope(c.result.cacheHit, *c.result.body);
        enqueueFrame(*conn, resp);
    }
}

void
ExperimentServer::enqueueFrame(Connection &conn, const Frame &frame)
{
    conn.outQueue.push_back(encodeFrame(frame));
    // Opportunistic write: most responses fit in the socket buffer, so
    // the common path completes without waiting for the next POLLOUT.
    if (!writePending(conn))
        conn.dead = true;
}

bool
ExperimentServer::writePending(Connection &conn)
{
    while (!conn.outQueue.empty()) {
        const std::vector<std::uint8_t> &buf = conn.outQueue.front();
        const ssize_t n =
            ::send(conn.sock.fd(), buf.data() + conn.outPos,
                   buf.size() - conn.outPos, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return true; // wait for POLLOUT
            if (errno == EINTR)
                continue;
            return false;
        }
        conn.outPos += static_cast<std::size_t>(n);
        if (conn.outPos == buf.size()) {
            conn.outQueue.pop_front();
            conn.outPos = 0;
        }
    }
    return true;
}

} // namespace piton::service
