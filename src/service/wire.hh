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
 *    a malformed frame can never read out of bounds.  Each layout is
 *    one field list, `fields(io, self)`: a sequence of `io.io(field)`
 *    calls that encodes over a WireWriter and decodes over a
 *    WireReader, so both directions agree by construction (the
 *    ckpt::Archive serialize idiom).
 *
 *  - Frames: the length-prefixed envelope on the TCP stream.
 *        u32 magic 'PSRV' | u16 wireVersion | u16 type |
 *        u64 requestId     | u32 payloadLen  | u32 payloadCrc |
 *        payload[payloadLen]
 *    The CRC (ckpt::crc32, the checkpoint subsystem's polynomial) lets
 *    the receiver reject corrupted frames before decoding; both ends
 *    read the header through parseFrameHeader.  requestId
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

#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/little_endian.hh"

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
 *  v3: worker handshake (frame types 10/11), VersionError typed
 *      mismatch frames, StatsReply carries WorkerStats (worker id +
 *      threads ahead of the metrics).
 *  v4: search-aware — ExperimentRequest grew Kind::PlacedRun with
 *      placement + tileFreqSteps vectors and the sampled-run opt-in
 *      (sampledSlices, sampledIntervalInsns); EnergyResult grew the
 *      sampled-estimate section (result format v2).
 *  v5: ExperimentRequest lost the engine flag (u8) and the engine
 *      thread count (u32); the service always runs the fast path on
 *      one thread per chip.
 *  v6: the worker handshake is gone; frame types 10 and 11 stay
 *      reserved. */
inline constexpr std::uint16_t kWireVersion = 6;

/**
 * Thrown when the peer speaks a different wire version.  Typed (rather
 * than a generic ServiceError) so callers can distinguish "deploy
 * mismatch, reconnecting won't help" from transient protocol damage,
 * and clients surface it verbatim.  Carries both versions and, when known, the request id
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
    // 10 (Hello) and 11 (HelloAck) carried the v3-v5 worker
    // handshake.  They stay unused so an old frame can never be
    // misread as a new type.
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
    static constexpr bool kWriting = true;

    void u8(std::uint8_t v) { bytes_.push_back(v); }
    void u16(std::uint16_t v) { putLe(bytes_, v); }
    void u32(std::uint32_t v) { putLe(bytes_, v); }
    void u64(std::uint64_t v) { putLe(bytes_, v); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void str(const std::string &s) { putRange(s); }
    void blob(const std::vector<std::uint8_t> &b) { putRange(b); }

    void io(std::uint8_t v) { u8(v); }
    void io(std::uint16_t v) { u16(v); }
    void io(std::uint32_t v) { u32(v); }
    void io(std::uint64_t v) { u64(v); }
    void io(double v) { f64(v); }
    void io(const std::string &s) { str(s); }
    void io(const std::vector<std::uint8_t> &b) { blob(b); }

    const std::vector<std::uint8_t> &bytes() const { return bytes_; }
    std::vector<std::uint8_t> take() { return std::move(bytes_); }

  private:
    /** A u32 length, then the bytes. */
    template <typename C>
    void
    putRange(const C &c)
    {
        u32(static_cast<std::uint32_t>(c.size()));
        bytes_.insert(bytes_.end(), c.begin(), c.end());
    }

    std::vector<std::uint8_t> bytes_;
};

class WireReader
{
  public:
    static constexpr bool kWriting = false;

    WireReader(const std::uint8_t *data, std::size_t len)
        : data_(data), len_(len)
    {}
    explicit WireReader(const std::vector<std::uint8_t> &bytes)
        : WireReader(bytes.data(), bytes.size())
    {}

    std::uint8_t u8() { return get<std::uint8_t>(); }
    std::uint16_t u16() { return get<std::uint16_t>(); }
    std::uint32_t u32() { return get<std::uint32_t>(); }
    std::uint64_t u64() { return get<std::uint64_t>(); }
    double f64() { return std::bit_cast<double>(u64()); }
    std::string str() { return getRange<std::string>(); }
    std::vector<std::uint8_t> blob()
    {
        return getRange<std::vector<std::uint8_t>>();
    }

    void io(std::uint8_t &v) { v = u8(); }
    void io(std::uint16_t &v) { v = u16(); }
    void io(std::uint32_t &v) { v = u32(); }
    void io(std::uint64_t &v) { v = u64(); }
    void io(double &v) { v = f64(); }
    void io(std::string &s) { s = str(); }
    void io(std::vector<std::uint8_t> &b) { b = blob(); }

    /** Trailing bytes mean writer/reader layout disagreement. */
    void expectEnd() const;

  private:
    template <typename T>
    T
    get()
    {
        need(sizeof(T));
        const T v = loadLe<T>(data_ + pos_);
        pos_ += sizeof(T);
        return v;
    }
    template <typename C>
    C
    getRange()
    {
        const std::uint32_t n = u32();
        need(n);
        C c(data_ + pos_, data_ + pos_ + n);
        pos_ += n;
        return c;
    }
    void need(std::size_t n) const;

    const std::uint8_t *data_;
    std::size_t len_;
    std::size_t pos_ = 0;
};

/** A field held in memory as T but stored as the fixed-width `Wire`
 *  (an int as u32, an enum as its u16, a bool as u8). */
template <typename Wire, typename Io, typename T>
void
ioAs(Io &io, T &v)
{
    if constexpr (Io::kWriting) {
        io.io(static_cast<Wire>(v));
    } else {
        Wire raw{};
        io.io(raw);
        v = static_cast<T>(raw);
    }
}

/** An enum stored as `Wire`; decoding throws ServiceError(what) unless
 *  the value is below `bound`. */
template <typename Wire, typename Io, typename E>
void
ioEnum(Io &io, E &v, std::remove_const_t<E> bound, const char *what)
{
    ioAs<Wire>(io, v);
    if (!Io::kWriting && static_cast<Wire>(v) >= static_cast<Wire>(bound))
        throw ServiceError(what);
}

/** A vector: its length as `Len`, then each element through
 *  `elem(io, x)`.  Decoding throws ServiceError(what) on a length above
 *  `max`, before allocating. */
template <typename Len, typename Io, typename V, typename Elem>
void
ioVector(Io &io, V &v, std::size_t max, const char *what, Elem elem)
{
    if constexpr (Io::kWriting) {
        io.io(static_cast<Len>(v.size()));
    } else {
        Len n{};
        io.io(n);
        if (n > max)
            throw ServiceError(what);
        v.resize(n);
    }
    for (auto &x : v)
        elem(io, x);
}

/** The element I/O of a vector of plain fields (for ioVector). */
inline constexpr auto ioField = [](auto &io, auto &x) { io.io(x); };

/** `v` encoded through its type's field list. */
template <typename T>
std::vector<std::uint8_t>
encodeFields(const T &v)
{
    WireWriter w;
    T::fields(w, v);
    return w.take();
}

/** Inverse of encodeFields: throws ServiceError on truncation, a
 *  violated bound or trailing bytes. */
template <typename T>
T
decodeFields(const std::vector<std::uint8_t> &bytes)
{
    WireReader r(bytes);
    T v;
    T::fields(r, v);
    r.expectEnd();
    return v;
}

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

/** The fixed-size header in front of every frame's payload. */
struct FrameHeader
{
    static constexpr std::size_t kBytes = 24;

    std::uint32_t magic = kFrameMagic;
    std::uint16_t version = kWireVersion;
    FrameType type = FrameType::Ping;
    std::uint64_t requestId = 0;
    std::uint32_t payloadLen = 0;
    std::uint32_t payloadCrc = 0;

    template <typename Io, typename Self>
    static void fields(Io &io, Self &self);

    /** Throws ServiceError unless `payload` matches payloadCrc. */
    void checkPayload(const std::vector<std::uint8_t> &payload) const;
};

/** Parse the header at p[0, FrameHeader::kBytes), throwing ServiceError
 *  on a bad magic or a payload length above kMaxPayloadBytes (before
 *  anything is allocated for it).  The version is left to the caller:
 *  a server answers a mismatch with a VersionError frame, and a client
 *  decodes a VersionError frame of any version. */
FrameHeader parseFrameHeader(const std::uint8_t *p);

/** VersionError payload.  FROZEN layout (u16 server, u16 client echo,
 *  str message): every future version must encode/decode it
 *  identically, or version skew becomes undiagnosable. */
struct VersionInfo
{
    std::uint16_t serverVersion = 0;
    std::uint16_t clientVersion = 0;
    std::string message;

    template <typename Io, typename Self>
    static void fields(Io &io, Self &self);
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
