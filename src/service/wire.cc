#include "service/wire.hh"

#include <algorithm>

#include "checkpoint/archive.hh"

namespace piton::service
{

// ---- WireReader -----------------------------------------------------

void
WireReader::need(std::size_t n) const
{
    if (len_ - pos_ < n)
        throw ServiceError("truncated message body");
}

void
WireReader::expectEnd() const
{
    if (pos_ != len_)
        throw ServiceError("trailing bytes after message body");
}

// ---- framing --------------------------------------------------------

template <typename Io, typename Self>
void
FrameHeader::fields(Io &io, Self &self)
{
    io.io(self.magic);
    io.io(self.version);
    ioAs<std::uint16_t>(io, self.type);
    io.io(self.requestId);
    io.io(self.payloadLen);
    io.io(self.payloadCrc);
}

void
FrameHeader::checkPayload(const std::vector<std::uint8_t> &payload) const
{
    if (ckpt::crc32(payload.data(), payload.size()) != payloadCrc)
        throw ServiceError("frame payload CRC mismatch");
}

FrameHeader
parseFrameHeader(const std::uint8_t *p)
{
    WireReader r(p, FrameHeader::kBytes);
    FrameHeader h;
    FrameHeader::fields(r, h);
    if (h.magic != kFrameMagic)
        throw ServiceError("bad frame magic");
    if (h.payloadLen > kMaxPayloadBytes)
        throw ServiceError("frame payload too large");
    return h;
}

std::vector<std::uint8_t>
encodeFrame(const Frame &frame, std::uint16_t wire_version)
{
    if (frame.payload.size() > kMaxPayloadBytes)
        throw ServiceError("frame payload too large");
    const FrameHeader h{
        .version = wire_version,
        .type = frame.type,
        .requestId = frame.requestId,
        .payloadLen = static_cast<std::uint32_t>(frame.payload.size()),
        .payloadCrc = ckpt::crc32(frame.payload.data(), frame.payload.size()),
    };
    std::vector<std::uint8_t> out = encodeFields(h);
    out.insert(out.end(), frame.payload.begin(), frame.payload.end());
    return out;
}

template <typename Io, typename Self>
void
VersionInfo::fields(Io &io, Self &self)
{
    io.io(self.serverVersion);
    io.io(self.clientVersion);
    io.io(self.message);
}

std::vector<std::uint8_t>
encodeVersionError(const VersionInfo &info)
{
    return encodeFields(info);
}

VersionInfo
decodeVersionError(const std::vector<std::uint8_t> &payload)
{
    return decodeFields<VersionInfo>(payload);
}

void
FrameParser::feed(const std::uint8_t *data, std::size_t len)
{
    buf_.insert(buf_.end(), data, data + len);
}

bool
FrameParser::next(Frame &out)
{
    if (buf_.size() < FrameHeader::kBytes)
        return false;
    std::uint8_t raw[FrameHeader::kBytes];
    std::copy_n(buf_.begin(), FrameHeader::kBytes, raw);
    const FrameHeader h = parseFrameHeader(raw);
    if (h.version != kWireVersion)
        throw VersionMismatchError(h.version, kWireVersion, h.requestId);
    const std::size_t end = FrameHeader::kBytes + h.payloadLen;
    if (buf_.size() < end)
        return false;

    out.type = h.type;
    out.requestId = h.requestId;
    out.payload.assign(buf_.begin() + FrameHeader::kBytes,
                       buf_.begin() + end);
    buf_.erase(buf_.begin(), buf_.begin() + end);
    h.checkPayload(out.payload);
    return true;
}

} // namespace piton::service
