/**
 * @file
 * Wire-protocol fault-injection battery (src/service/wire, client,
 * server): truncated frames at every header boundary, flipped CRC and
 * payload bytes, oversized length prefixes, bad magic, byte-by-byte
 * reassembly, seeded mutation fuzz — all must produce clean typed
 * errors, never hangs or UB (the suite runs under ASan/UBSan in CI).
 * Also covers both directions of wire-version negotiation: an older
 * (v2 or v4) client against this server gets a decodable VersionError
 * frame stamped with ITS version, and this client against an older
 * server throws VersionMismatchError, not a CRC failure.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <vector>

#include "common/net.hh"
#include "service/client.hh"
#include "service/request.hh"
#include "service/server.hh"
#include "service/wire.hh"

namespace
{

using namespace piton;
using namespace piton::service;

Frame
pingFrame(std::uint64_t request_id)
{
    Frame f;
    f.type = FrameType::Ping;
    f.requestId = request_id;
    return f;
}

/** Older wire versions the skew tests pose as: v2 (pre-fleet) and v4,
 *  whose request body still carried the engine flag and thread count —
 *  a v5 parser must reject it by version, never misparse those 5
 *  bytes. */
constexpr std::uint16_t kSkewedVersions[] = {2, 4};

std::vector<std::uint8_t>
smallRequestFrameBytes(std::uint16_t wire_version = kWireVersion)
{
    ExperimentRequest req;
    req.kind = Kind::MeasurePower;
    req.workload.cores = 2;
    req.workload.threadsPerCore = 1;
    req.workload.totalElements = 256;
    req.samples = 4;
    req.warmupCycles = 4000;
    Frame frame;
    frame.type = FrameType::Request;
    frame.requestId = 7;
    WireWriter w;
    req.encode(w);
    frame.payload = w.take();
    return encodeFrame(frame, wire_version);
}

/** Feed `bytes` and drain the parser, returning completed frames.
 *  Exceptions propagate to the caller. */
std::vector<Frame>
parseAll(FrameParser &parser, const std::vector<std::uint8_t> &bytes)
{
    parser.feed(bytes.data(), bytes.size());
    std::vector<Frame> out;
    Frame f;
    while (parser.next(f))
        out.push_back(std::move(f));
    return out;
}

// ---- parser: truncation ---------------------------------------------

TEST(WireFault, TruncationAtEveryBoundaryIsIncompleteNotAnError)
{
    const std::vector<std::uint8_t> full = smallRequestFrameBytes();
    // Every proper prefix — mid-magic, mid-version, mid-length,
    // mid-payload — parses to "no frame yet", never to an error and
    // never to a frame.
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        FrameParser parser;
        const std::vector<std::uint8_t> prefix(full.begin(),
                                               full.begin() + cut);
        EXPECT_TRUE(parseAll(parser, prefix).empty()) << "cut " << cut;
        EXPECT_EQ(parser.bufferedBytes(), cut);
        // The missing tail completes exactly one frame.
        const std::vector<std::uint8_t> rest(full.begin() + cut,
                                             full.end());
        const std::vector<Frame> frames = parseAll(parser, rest);
        ASSERT_EQ(frames.size(), 1u) << "cut " << cut;
        EXPECT_EQ(frames[0].type, FrameType::Request);
        EXPECT_EQ(frames[0].requestId, 7u);
    }
}

TEST(WireFault, ByteByByteReassemblyEqualsOneShot)
{
    std::vector<std::uint8_t> stream = encodeFrame(pingFrame(1));
    const std::vector<std::uint8_t> req = smallRequestFrameBytes();
    stream.insert(stream.end(), req.begin(), req.end());
    const std::vector<std::uint8_t> cancel = [] {
        Frame f;
        f.type = FrameType::Cancel;
        f.requestId = 9;
        return encodeFrame(f);
    }();
    stream.insert(stream.end(), cancel.begin(), cancel.end());

    FrameParser whole;
    const std::vector<Frame> at_once = parseAll(whole, stream);

    FrameParser dribble;
    std::vector<Frame> one_by_one;
    for (const std::uint8_t byte : stream) {
        dribble.feed(&byte, 1);
        Frame f;
        while (dribble.next(f))
            one_by_one.push_back(std::move(f));
    }
    ASSERT_EQ(at_once.size(), 3u);
    ASSERT_EQ(one_by_one.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(one_by_one[i].type, at_once[i].type);
        EXPECT_EQ(one_by_one[i].requestId, at_once[i].requestId);
        EXPECT_EQ(one_by_one[i].payload, at_once[i].payload);
    }
}

// ---- parser: corruption ---------------------------------------------

TEST(WireFault, FlippedPayloadByteFailsTheCrc)
{
    std::vector<std::uint8_t> bytes = smallRequestFrameBytes();
    bytes[bytes.size() - 1] ^= 0x01; // last payload byte
    FrameParser parser;
    EXPECT_THROW(parseAll(parser, bytes), ServiceError);
}

TEST(WireFault, FlippedCrcByteFailsTheCrc)
{
    std::vector<std::uint8_t> bytes = smallRequestFrameBytes();
    bytes[20] ^= 0x80; // inside the u32 crc field (offset 20..23)
    FrameParser parser;
    EXPECT_THROW(parseAll(parser, bytes), ServiceError);
}

TEST(WireFault, BadMagicIsRejectedImmediately)
{
    std::vector<std::uint8_t> bytes = smallRequestFrameBytes();
    bytes[0] ^= 0xff;
    FrameParser parser;
    EXPECT_THROW(parseAll(parser, bytes), ServiceError);
}

TEST(WireFault, OversizedLengthPrefixIsRejectedBeforeBuffering)
{
    std::vector<std::uint8_t> bytes = smallRequestFrameBytes();
    // payloadLen lives at offset 16..19 (after magic, version, type,
    // requestId); claim kMaxPayloadBytes + 1.
    const std::uint32_t huge = kMaxPayloadBytes + 1;
    std::memcpy(bytes.data() + 16, &huge, sizeof(huge));
    FrameParser parser;
    // Feed only the header: the bogus length must be rejected without
    // waiting for (or allocating) 64 MiB of payload.
    const std::vector<std::uint8_t> header(bytes.begin(),
                                           bytes.begin() + 24);
    EXPECT_THROW(parseAll(parser, header), ServiceError);
}

TEST(WireFault, VersionSkewThrowsTypedErrorWithRequestId)
{
    for (const std::uint16_t v : kSkewedVersions) {
        const std::vector<std::uint8_t> bytes = smallRequestFrameBytes(v);
        FrameParser parser;
        try {
            parseAll(parser, bytes);
            ADD_FAILURE() << "v" << v << " frame accepted by a v"
                          << kWireVersion << " parser";
        } catch (const VersionMismatchError &e) {
            EXPECT_EQ(e.got(), v);
            EXPECT_EQ(e.want(), kWireVersion);
            EXPECT_EQ(e.requestId(), 7u);
        }
    }
}

TEST(WireFault, SeededMutationFuzzNeverHangsOrLeaks)
{
    const std::vector<std::uint8_t> clean = smallRequestFrameBytes();
    std::mt19937 rng(0xf1ee7u);
    for (int iter = 0; iter < 300; ++iter) {
        std::vector<std::uint8_t> bytes = clean;
        const int flips = 1 + static_cast<int>(rng() % 4);
        for (int i = 0; i < flips; ++i)
            bytes[rng() % bytes.size()] ^=
                static_cast<std::uint8_t>(1u << (rng() % 8));
        FrameParser parser;
        // Feed in random chunks; any outcome is fine except a hang,
        // a crash, or an unknown exception type.
        std::size_t pos = 0;
        try {
            while (pos < bytes.size()) {
                const std::size_t chunk = std::min<std::size_t>(
                    1 + rng() % 11, bytes.size() - pos);
                parser.feed(bytes.data() + pos, chunk);
                pos += chunk;
                Frame f;
                while (parser.next(f)) {
                }
            }
        } catch (const ServiceError &) {
            // VersionMismatchError included — it is a ServiceError.
        }
    }
}

// ---- server under malformed input -----------------------------------

/** Block until `sock` is readable, then recv once (the fixture's
 *  sockets are nonblocking on the accept side). */
ssize_t
recvSome(const net::Socket &sock, std::uint8_t *buf, std::size_t len,
         int timeout_ms = 5000)
{
    if (!net::waitReadable(sock.fd(), timeout_ms))
        return -1;
    return ::recv(sock.fd(), buf, len, 0);
}

TEST(WireFault, ServerSurvivesGarbageTruncationAndDisconnects)
{
    ServerConfig cfg;
    cfg.scheduler.threads = 1;
    ExperimentServer server(cfg);
    server.start();

    {
        // Pure garbage: the server must close the connection, not die.
        net::Socket s = net::connectTcp(server.port());
        const std::uint8_t junk[64] = {0xde, 0xad, 0xbe, 0xef};
        net::sendAll(s, junk, sizeof(junk));
        std::uint8_t buf[16];
        // Server closes on us (recv 0) rather than answering.
        EXPECT_LE(recvSome(s, buf, sizeof(buf)), 0);
    }
    {
        // Mid-frame disconnect: send half a valid request, vanish.
        net::Socket s = net::connectTcp(server.port());
        const std::vector<std::uint8_t> bytes = smallRequestFrameBytes();
        net::sendAll(s, bytes.data(), bytes.size() / 2);
    }
    {
        // Oversized length prefix on a live connection.
        net::Socket s = net::connectTcp(server.port());
        std::vector<std::uint8_t> bytes = smallRequestFrameBytes();
        const std::uint32_t huge = kMaxPayloadBytes + 1;
        std::memcpy(bytes.data() + 16, &huge, sizeof(huge));
        net::sendAll(s, bytes.data(), 24);
        std::uint8_t buf[16];
        EXPECT_LE(recvSome(s, buf, sizeof(buf)), 0);
    }

    // After all that abuse a well-formed client still gets service.
    TcpClient ok(server.port());
    ok.ping();
    ExperimentRequest req;
    req.kind = Kind::MeasurePower;
    req.workload.cores = 2;
    req.workload.threadsPerCore = 1;
    req.workload.totalElements = 256;
    req.samples = 4;
    req.warmupCycles = 4000;
    EXPECT_EQ(ok.run(req).status, Status::Ok);
    server.stop();
}

// ---- version negotiation, both directions ---------------------------

TEST(WireFault, V2ClientGetsDecodableVersionErrorNotCrcFailure)
{
    ServerConfig cfg;
    cfg.scheduler.threads = 1;
    ExperimentServer server(cfg);
    server.start();

    for (const std::uint16_t v : kSkewedVersions) {
        SCOPED_TRACE("client version " + std::to_string(v));
        // Pose as an older client: a well-formed frame except for the
        // version.
        net::Socket s = net::connectTcp(server.port());
        const std::vector<std::uint8_t> bytes = smallRequestFrameBytes(v);
        net::sendAll(s, bytes.data(), bytes.size());

        // The reply must be a VersionError frame stamped with OUR
        // claimed version so a strict parser of that version would
        // accept it.
        std::uint8_t header[24];
        ASSERT_TRUE(net::recvExact(s, header, sizeof(header)));
        WireReader r(header, sizeof(header));
        EXPECT_EQ(r.u32(), kFrameMagic);
        EXPECT_EQ(r.u16(), v); // the peer's version, not the server's
        EXPECT_EQ(r.u16(),
                  static_cast<std::uint16_t>(FrameType::VersionError));
        EXPECT_EQ(r.u64(), 7u); // echoes the offending requestId
        const std::uint32_t len = r.u32();
        (void)r.u32(); // crc
        std::vector<std::uint8_t> payload(len);
        ASSERT_TRUE(net::recvExact(s, payload.data(), payload.size()));
        const VersionInfo info = decodeVersionError(payload);
        EXPECT_EQ(info.serverVersion, kWireVersion);
        EXPECT_EQ(info.clientVersion, v);
        EXPECT_FALSE(info.message.empty());

        // …and then the stream ends: a skewed connection cannot
        // continue.
        std::uint8_t more;
        EXPECT_FALSE(net::recvExact(s, &more, 1));
    }
    server.stop();
}

/** One-shot fake server: accepts a single connection, optionally
 *  reads the client's frame, writes `reply`, closes. */
class FakeServer
{
  public:
    explicit FakeServer(std::vector<std::uint8_t> reply)
        : listener_(net::listenTcp(0)), port_(net::boundPort(listener_)),
          thread_([this, reply = std::move(reply)] {
              if (!net::waitReadable(listener_.fd(), 5000))
                  return;
              net::Socket conn = net::acceptConnection(listener_);
              if (!conn.valid())
                  return;
              std::uint8_t buf[4096];
              (void)recvSome(conn, buf, sizeof(buf)); // drain request
              if (!reply.empty())
                  net::sendAll(conn, reply.data(), reply.size());
              // conn closes on scope exit (mid-stream disconnect when
              // the reply was truncated).
          })
    {}
    ~FakeServer() { thread_.join(); }
    std::uint16_t port() const { return port_; }

  private:
    net::Socket listener_;
    std::uint16_t port_;
    std::thread thread_;
};

TEST(WireFault, ClientThrowsTypedOnV2StampedReply)
{
    // An old server replying with its own framing: the client must
    // diagnose version skew, not report a CRC or magic failure.
    for (const std::uint16_t v : kSkewedVersions) {
        FakeServer fake(encodeFrame(pingFrame(1), v));
        TcpClient client(fake.port());
        try {
            client.ping();
            ADD_FAILURE() << "v" << v << "-stamped reply accepted";
        } catch (const VersionMismatchError &e) {
            EXPECT_EQ(e.got(), v);
            EXPECT_EQ(e.want(), kWireVersion);
        }
    }
}

TEST(WireFault, ClientThrowsTypedOnVersionErrorFrame)
{
    // A newer server telling this peer to go away: the VersionError
    // payload wins over the header version.
    VersionInfo info;
    info.serverVersion = kWireVersion + 1; // hypothetical future server
    info.clientVersion = kWireVersion;
    info.message = "upgrade required";
    Frame frame;
    frame.type = FrameType::VersionError;
    frame.requestId = 1;
    frame.payload = encodeVersionError(info);
    FakeServer fake(encodeFrame(frame, kWireVersion));
    TcpClient client(fake.port());
    try {
        client.ping();
        FAIL() << "VersionError frame did not throw";
    } catch (const VersionMismatchError &e) {
        EXPECT_EQ(e.got(), kWireVersion + 1);
        EXPECT_EQ(e.want(), kWireVersion);
    }
}

TEST(WireFault, ClientRejectsCorruptReplies)
{
    {
        // Flipped payload byte → CRC mismatch.
        std::vector<std::uint8_t> reply = smallRequestFrameBytes();
        reply.back() ^= 0x01;
        FakeServer fake(std::move(reply));
        TcpClient client(fake.port());
        EXPECT_THROW(client.ping(), ServiceError);
    }
    {
        // Bad magic.
        std::vector<std::uint8_t> reply = encodeFrame(pingFrame(1));
        reply[0] ^= 0xff;
        FakeServer fake(std::move(reply));
        TcpClient client(fake.port());
        EXPECT_THROW(client.ping(), ServiceError);
    }
    {
        // Oversized length prefix.
        std::vector<std::uint8_t> reply = encodeFrame(pingFrame(1));
        const std::uint32_t huge = kMaxPayloadBytes + 1;
        std::memcpy(reply.data() + 16, &huge, sizeof(huge));
        FakeServer fake(std::move(reply));
        TcpClient client(fake.port());
        EXPECT_THROW(client.ping(), ServiceError);
    }
    {
        // Mid-frame disconnect: header promises more than arrives.
        // (NetError or ServiceError depending on where the cut lands —
        // both are clean typed errors, which is the contract.)
        std::vector<std::uint8_t> reply = smallRequestFrameBytes();
        reply.resize(reply.size() / 2);
        FakeServer fake(std::move(reply));
        TcpClient client(fake.port());
        EXPECT_THROW(client.ping(), std::runtime_error);
    }
    {
        // Clean close before any reply.
        FakeServer fake({});
        TcpClient client(fake.port());
        EXPECT_THROW(client.ping(), std::runtime_error);
    }
}

} // namespace
