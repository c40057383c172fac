#include "service/wire.hh"

#include <cstring>

#include "checkpoint/archive.hh"

namespace piton::service
{

// ---- WireWriter -----------------------------------------------------

void
WireWriter::putLe(std::uint64_t v, int n)
{
    for (int i = 0; i < n; ++i)
        bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
WireWriter::f64(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
WireWriter::str(const std::string &s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void
WireWriter::blob(const std::vector<std::uint8_t> &b)
{
    u32(static_cast<std::uint32_t>(b.size()));
    bytes_.insert(bytes_.end(), b.begin(), b.end());
}

// ---- WireReader -----------------------------------------------------

void
WireReader::need(std::size_t n) const
{
    if (len_ - pos_ < n)
        throw ServiceError("truncated message body");
}

std::uint64_t
WireReader::getLe(int n)
{
    need(static_cast<std::size_t>(n));
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i)
        v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += static_cast<std::size_t>(n);
    return v;
}

std::uint8_t
WireReader::u8()
{
    need(1);
    return data_[pos_++];
}

double
WireReader::f64()
{
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
WireReader::str()
{
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char *>(data_ + pos_), n);
    pos_ += n;
    return s;
}

std::vector<std::uint8_t>
WireReader::blob()
{
    const std::uint32_t n = u32();
    need(n);
    std::vector<std::uint8_t> b(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return b;
}

void
WireReader::expectEnd() const
{
    if (pos_ != len_)
        throw ServiceError("trailing bytes after message body");
}

// ---- framing --------------------------------------------------------

namespace
{

constexpr std::size_t kHeaderBytes = 4 + 2 + 2 + 8 + 4 + 4;

} // namespace

std::vector<std::uint8_t>
encodeFrame(const Frame &frame, std::uint16_t wire_version)
{
    if (frame.payload.size() > kMaxPayloadBytes)
        throw ServiceError("frame payload too large");
    WireWriter w;
    w.u32(kFrameMagic);
    w.u16(wire_version);
    w.u16(static_cast<std::uint16_t>(frame.type));
    w.u64(frame.requestId);
    w.u32(static_cast<std::uint32_t>(frame.payload.size()));
    w.u32(ckpt::crc32(frame.payload.data(), frame.payload.size()));
    std::vector<std::uint8_t> out = w.take();
    out.insert(out.end(), frame.payload.begin(), frame.payload.end());
    return out;
}

std::vector<std::uint8_t>
encodeVersionError(const VersionInfo &info)
{
    WireWriter w;
    w.u16(info.serverVersion);
    w.u16(info.clientVersion);
    w.str(info.message);
    return w.take();
}

VersionInfo
decodeVersionError(const std::vector<std::uint8_t> &payload)
{
    WireReader r(payload);
    VersionInfo info;
    info.serverVersion = r.u16();
    info.clientVersion = r.u16();
    info.message = r.str();
    r.expectEnd();
    return info;
}

void
FrameParser::feed(const std::uint8_t *data, std::size_t len)
{
    buf_.insert(buf_.end(), data, data + len);
}

bool
FrameParser::next(Frame &out)
{
    if (buf_.size() < kHeaderBytes)
        return false;
    std::uint8_t header[kHeaderBytes];
    for (std::size_t i = 0; i < kHeaderBytes; ++i)
        header[i] = buf_[i];
    WireReader r(header, kHeaderBytes);
    if (r.u32() != kFrameMagic)
        throw ServiceError("bad frame magic");
    const std::uint16_t version = r.u16();
    const auto type = static_cast<FrameType>(r.u16());
    const std::uint64_t request_id = r.u64();
    const std::uint32_t payload_len = r.u32();
    const std::uint32_t payload_crc = r.u32();
    if (version != kWireVersion)
        throw VersionMismatchError(version, kWireVersion, request_id);
    if (payload_len > kMaxPayloadBytes)
        throw ServiceError("frame payload too large");
    if (buf_.size() < kHeaderBytes + payload_len)
        return false;

    out.type = type;
    out.requestId = request_id;
    out.payload.assign(buf_.begin() + kHeaderBytes,
                       buf_.begin() + kHeaderBytes + payload_len);
    buf_.erase(buf_.begin(), buf_.begin() + kHeaderBytes + payload_len);
    if (ckpt::crc32(out.payload.data(), out.payload.size()) != payload_crc)
        throw ServiceError("frame payload CRC mismatch");
    return true;
}

} // namespace piton::service
