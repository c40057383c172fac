/**
 * @file
 * Wire encoding for the experiment service (DESIGN.md §11).
 *
 * Two layers:
 *
 *  - WireWriter/WireReader: the byte codec every request/response body
 *    goes through.  Fixed-width little-endian scalars, doubles as raw
 *    IEEE-754 bit patterns (byte-exact round trips, same rule as
 *    ckpt::Archive), strings and blobs with a u32 length prefix.
 *    Reads are bounds-checked and throw ServiceError on truncation —
 *    a malformed frame can never read out of bounds.
 *
 *  - Frames: the length-prefixed envelope on the TCP stream.
 *        u32 magic 'PSRV' | u16 wireVersion | u16 type |
 *        u64 requestId     | u32 payloadLen  | u32 payloadCrc |
 *        payload[payloadLen]
 *    The CRC (ckpt::crc32, the checkpoint subsystem's polynomial) lets
 *    the receiver reject corrupted frames before decoding.  requestId
 *    is chosen by the client and echoed in the response, so one
 *    connection can pipeline many requests and cancel by id.
 *
 * The body encoding doubles as the *canonical form* for cache keying:
 * the content-addressed result cache hashes exactly these bytes (see
 * request.hh), which is why the codec has no nondeterminism (no maps,
 * no pointers, no padding).
 */

#ifndef PITON_SERVICE_WIRE_HH
#define PITON_SERVICE_WIRE_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

namespace piton::service
{

/** Thrown on malformed frames/bodies and client-side protocol errors. */
class ServiceError : public std::runtime_error
{
  public:
    explicit ServiceError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Bumped on any frame-layout or body-encoding change.
 *  v2: ExperimentRequest grew an engine thread count (u32, after the
 *      engine flag).
 *  v3: fleet-aware — Hello/HelloAck worker handshake, VersionError
 *      typed mismatch frames, StatsReply carries WorkerStats (worker
 *      id + threads ahead of the metrics).
 *  v4: search-aware — ExperimentRequest grew Kind::PlacedRun with
 *      placement + tileFreqSteps vectors and the sampled-run opt-in
 *      (sampledSlices, sampledIntervalInsns); EnergyResult grew the
 *      sampled-estimate section (result format v2).
 *  v5: ExperimentRequest lost the engine flag (u8) and the engine
 *      thread count (u32); the service always runs the fast path on
 *      one thread per chip. */
inline constexpr std::uint16_t kWireVersion = 5;

/**
 * Thrown when the peer speaks a different wire version.  Typed (rather
 * than a generic ServiceError) so callers can distinguish "deploy
 * mismatch, reconnecting won't help" from transient protocol damage —
 * the fleet coordinator must NOT fail over on it, and clients surface
 * it verbatim.  Carries both versions and, when known, the request id
 * of the offending frame so a server can address its VersionError
 * reply.
 */
class VersionMismatchError : public ServiceError
{
  public:
    VersionMismatchError(std::uint16_t got, std::uint16_t want,
                         std::uint64_t request_id = 0)
        : ServiceError("wire version mismatch: got "
                       + std::to_string(got) + ", want "
                       + std::to_string(want)),
          got_(got), want_(want), requestId_(request_id)
    {}

    std::uint16_t got() const { return got_; }
    std::uint16_t want() const { return want_; }
    std::uint64_t requestId() const { return requestId_; }

  private:
    std::uint16_t got_;
    std::uint16_t want_;
    std::uint64_t requestId_;
};

/** Frame magic "PSRV" (little-endian u32 on the wire). */
inline constexpr std::uint32_t kFrameMagic = 0x56525350u;

/** Refuse absurd payloads before allocating (a corrupted length field
 *  must not turn into a multi-gigabyte allocation). */
inline constexpr std::uint32_t kMaxPayloadBytes = 64u * 1024 * 1024;

enum class FrameType : std::uint16_t
{
    Request = 1,
    Response = 2,
    Cancel = 3,
    Ping = 4,
    Pong = 5,
    StatsQuery = 6,
    StatsReply = 7,
    Shutdown = 8,
    ShutdownAck = 9,
    /** Worker handshake (v3): client announces its version and name,
     *  server replies with HelloAck (version, worker id, threads). */
    Hello = 10,
    HelloAck = 11,
    /**
     * Typed version-mismatch reply (v3 servers).  The frame HEADER is
     * encoded with the *peer's* version number so the peer's strict
     * parser accepts it, and the payload layout below is frozen across
     * all future versions — it is the one frame both sides of any
     * version skew can decode.
     */
    VersionError = 12,
};

// ---- body codec -----------------------------------------------------

class WireWriter
{
  public:
    void u8(std::uint8_t v) { bytes_.push_back(v); }
    void u16(std::uint16_t v) { putLe(v, 2); }
    void u32(std::uint32_t v) { putLe(v, 4); }
    void u64(std::uint64_t v) { putLe(v, 8); }
    void f64(double v);
    void str(const std::string &s);
    void blob(const std::vector<std::uint8_t> &b);

    const std::vector<std::uint8_t> &bytes() const { return bytes_; }
    std::vector<std::uint8_t> take() { return std::move(bytes_); }

  private:
    void putLe(std::uint64_t v, int n);

    std::vector<std::uint8_t> bytes_;
};

class WireReader
{
  public:
    WireReader(const std::uint8_t *data, std::size_t len)
        : data_(data), len_(len)
    {}
    explicit WireReader(const std::vector<std::uint8_t> &bytes)
        : WireReader(bytes.data(), bytes.size())
    {}

    std::uint8_t u8();
    std::uint16_t u16() { return static_cast<std::uint16_t>(getLe(2)); }
    std::uint32_t u32() { return static_cast<std::uint32_t>(getLe(4)); }
    std::uint64_t u64() { return getLe(8); }
    double f64();
    std::string str();
    std::vector<std::uint8_t> blob();

    std::size_t remaining() const { return len_ - pos_; }
    /** Trailing bytes mean writer/reader layout disagreement. */
    void expectEnd() const;

  private:
    std::uint64_t getLe(int n);
    void need(std::size_t n) const;

    const std::uint8_t *data_;
    std::size_t len_;
    std::size_t pos_ = 0;
};

// ---- framing --------------------------------------------------------

struct Frame
{
    FrameType type = FrameType::Ping;
    std::uint64_t requestId = 0;
    std::vector<std::uint8_t> payload;
};

/** Serialize a complete frame (header + CRC + payload).  The optional
 *  `wire_version` override exists for VersionError replies, which are
 *  stamped with the peer's version so its parser accepts them. */
std::vector<std::uint8_t> encodeFrame(const Frame &frame,
                                      std::uint16_t wire_version
                                      = kWireVersion);

/** Hello payload (client → server). */
struct HelloRequest
{
    std::uint16_t wireVersion = kWireVersion;
    std::string clientName;
};

/** HelloAck payload (server → client): the worker's registration
 *  card — identity the fleet coordinator routes and reports by. */
struct HelloReply
{
    std::uint16_t wireVersion = kWireVersion;
    std::string workerId;
    std::uint32_t schedulerThreads = 0;
};

std::vector<std::uint8_t> encodeHelloRequest(const HelloRequest &h);
HelloRequest decodeHelloRequest(const std::vector<std::uint8_t> &payload);
std::vector<std::uint8_t> encodeHelloReply(const HelloReply &h);
HelloReply decodeHelloReply(const std::vector<std::uint8_t> &payload);

/** VersionError payload.  FROZEN layout (u16 server, u16 client echo,
 *  str message): every future version must encode/decode it
 *  identically, or version skew becomes undiagnosable. */
struct VersionInfo
{
    std::uint16_t serverVersion = 0;
    std::uint16_t clientVersion = 0;
    std::string message;
};

std::vector<std::uint8_t> encodeVersionError(const VersionInfo &info);
VersionInfo decodeVersionError(const std::vector<std::uint8_t> &payload);

/**
 * Incremental frame decoder for one byte stream.  feed() appends raw
 * received bytes; next() pops the earliest complete frame, validating
 * magic, version, length bound, and payload CRC (throwing ServiceError
 * on any violation — the connection is then unrecoverable and should
 * be closed).  A version mismatch throws the typed
 * VersionMismatchError (with the offending frame's request id) so the
 * server can answer with a VersionError frame instead of silently
 * dropping the connection.
 */
class FrameParser
{
  public:
    void feed(const std::uint8_t *data, std::size_t len);
    bool next(Frame &out);

    std::size_t bufferedBytes() const { return buf_.size(); }

  private:
    std::deque<std::uint8_t> buf_;
};

} // namespace piton::service

#endif // PITON_SERVICE_WIRE_HH
