#include "checkpoint/archive.hh"

#include <array>
#include <cstdio>

namespace piton::ckpt
{

namespace
{

std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

/** Little-endian scalar append/extract.  The simulator only targets
 *  little-endian hosts, but going through explicit byte shifts keeps
 *  the on-disk format well-defined either way. */
template <typename T>
void
putScalar(std::vector<std::uint8_t> &out, T v)
{
    for (std::size_t i = 0; i < sizeof(T); ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

template <typename T>
T
getScalar(const std::uint8_t *p)
{
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
        v |= static_cast<T>(p[i]) << (8 * i);
    return v;
}

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t len)
{
    static const std::array<std::uint32_t, 256> table = makeCrcTable();
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < len; ++i)
        c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

Archive
Archive::forSave()
{
    return Archive(Mode::Save);
}

Archive
Archive::forLoad(std::vector<std::uint8_t> bytes)
{
    Archive ar(Mode::Load);
    ar.bytes_ = std::move(bytes);
    const auto &b = ar.bytes_;

    check(b.size() >= sizeof(kMagic) + 2 * sizeof(std::uint32_t),
          "checkpoint truncated: missing header");
    check(std::memcmp(b.data(), kMagic, sizeof(kMagic)) == 0,
          "not a checkpoint file (bad magic)");
    std::size_t pos = sizeof(kMagic);
    const std::uint32_t version = getScalar<std::uint32_t>(&b[pos]);
    pos += sizeof(std::uint32_t);
    if (version != kFormatVersion)
        throw CheckpointError(
            "checkpoint format version " + std::to_string(version)
            + " does not match this build's version "
            + std::to_string(kFormatVersion));
    const std::uint32_t nsections = getScalar<std::uint32_t>(&b[pos]);
    pos += sizeof(std::uint32_t);

    for (std::uint32_t s = 0; s < nsections; ++s) {
        check(pos + sizeof(std::uint32_t) <= b.size(),
              "checkpoint truncated: section name length");
        const std::uint32_t name_len = getScalar<std::uint32_t>(&b[pos]);
        pos += sizeof(std::uint32_t);
        check(name_len <= 256 && pos + name_len <= b.size(),
              "checkpoint truncated: section name");
        SectionEntry e;
        e.name.assign(reinterpret_cast<const char *>(&b[pos]), name_len);
        pos += name_len;
        check(pos + sizeof(std::uint64_t) + sizeof(std::uint32_t)
                  <= b.size(),
              "checkpoint truncated: section header");
        const std::uint64_t payload_len = getScalar<std::uint64_t>(&b[pos]);
        pos += sizeof(std::uint64_t);
        const std::uint32_t want_crc = getScalar<std::uint32_t>(&b[pos]);
        pos += sizeof(std::uint32_t);
        check(payload_len <= b.size() - pos,
              "checkpoint truncated: section payload");
        e.offset = pos;
        e.length = static_cast<std::size_t>(payload_len);
        pos += e.length;
        if (crc32(&b[e.offset], e.length) != want_crc)
            throw CheckpointError("checkpoint corrupt: CRC mismatch in "
                                  "section '" + e.name + "'");
        ar.dir_.push_back(std::move(e));
    }
    check(pos == b.size(), "checkpoint corrupt: trailing bytes");
    return ar;
}

void
Archive::beginSection(const std::string &name)
{
    check(!inSection_, "beginSection: sections must not nest");
    inSection_ = true;
    curName_ = name;
    if (saving()) {
        check(!finished_, "beginSection after finish()");
        cur_.clear();
        return;
    }
    for (const auto &e : dir_) {
        if (e.name == name) {
            readPos_ = e.offset;
            readEnd_ = e.offset + e.length;
            return;
        }
    }
    throw CheckpointError("checkpoint missing section '" + name + "'");
}

void
Archive::endSection()
{
    check(inSection_, "endSection without beginSection");
    inSection_ = false;
    if (saving()) {
        putScalar(bytes_, static_cast<std::uint32_t>(curName_.size()));
        bytes_.insert(bytes_.end(), curName_.begin(), curName_.end());
        putScalar(bytes_, static_cast<std::uint64_t>(cur_.size()));
        putScalar(bytes_, crc32(cur_.data(), cur_.size()));
        bytes_.insert(bytes_.end(), cur_.begin(), cur_.end());
        ++sectionCount_;
        cur_.clear();
        return;
    }
    if (readPos_ != readEnd_)
        throw CheckpointError("checkpoint corrupt: section '" + curName_
                              + "' has unread trailing bytes");
}

bool
Archive::hasSection(const std::string &name) const
{
    for (const auto &e : dir_)
        if (e.name == name)
            return true;
    return false;
}

std::vector<std::uint8_t>
Archive::finish()
{
    check(saving(), "finish() on a loading archive");
    check(!inSection_, "finish() inside an open section");
    check(!finished_, "finish() called twice");
    finished_ = true;
    std::vector<std::uint8_t> out;
    out.reserve(bytes_.size() + 16);
    // Byte-wise: GCC 12 mis-sizes a range insert from the char array
    // into the freshly reserved buffer (-Wstringop-overflow).
    for (const char c : kMagic)
        out.push_back(static_cast<std::uint8_t>(c));
    putScalar(out, kFormatVersion);
    putScalar(out, sectionCount_);
    out.insert(out.end(), bytes_.begin(), bytes_.end());
    return out;
}

void
Archive::put(const void *p, std::size_t n)
{
    check(inSection_, "field I/O outside a section");
    const auto *b = static_cast<const std::uint8_t *>(p);
    cur_.insert(cur_.end(), b, b + n);
}

void
Archive::get(void *p, std::size_t n)
{
    check(inSection_, "field I/O outside a section");
    if (readEnd_ - readPos_ < n)
        throw CheckpointError("checkpoint corrupt: section '" + curName_
                              + "' too short");
    std::memcpy(p, &bytes_[readPos_], n);
    readPos_ += n;
}

void
Archive::io(bool &v)
{
    std::uint8_t raw = v ? 1 : 0;
    io(raw);
    check(raw <= 1, "bool field out of range");
    v = raw != 0;
}

void
Archive::io(std::uint8_t &v)
{
    if (saving())
        put(&v, 1);
    else
        get(&v, 1);
}

void
Archive::io(std::uint16_t &v)
{
    std::uint8_t buf[sizeof(v)];
    if (saving()) {
        for (std::size_t i = 0; i < sizeof(v); ++i)
            buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
        put(buf, sizeof(v));
    } else {
        get(buf, sizeof(v));
        v = getScalar<std::uint16_t>(buf);
    }
}

void
Archive::io(std::uint32_t &v)
{
    std::uint8_t buf[sizeof(v)];
    if (saving()) {
        for (std::size_t i = 0; i < sizeof(v); ++i)
            buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
        put(buf, sizeof(v));
    } else {
        get(buf, sizeof(v));
        v = getScalar<std::uint32_t>(buf);
    }
}

void
Archive::io(std::uint64_t &v)
{
    std::uint8_t buf[sizeof(v)];
    if (saving()) {
        for (std::size_t i = 0; i < sizeof(v); ++i)
            buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
        put(buf, sizeof(v));
    } else {
        get(buf, sizeof(v));
        v = getScalar<std::uint64_t>(buf);
    }
}

void
Archive::io(std::int64_t &v)
{
    auto raw = static_cast<std::uint64_t>(v);
    io(raw);
    v = static_cast<std::int64_t>(raw);
}

void
Archive::io(double &v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    io(bits);
    std::memcpy(&v, &bits, sizeof(bits));
}

void
Archive::io(std::string &v)
{
    std::uint64_t n = ioSize(v.size());
    if (loading())
        v.resize(static_cast<std::size_t>(n));
    if (saving())
        put(v.data(), v.size());
    else if (n > 0)
        get(v.data(), v.size());
}

void
Archive::ioBytes(std::vector<std::uint8_t> &v)
{
    std::uint64_t n = ioSize(v.size());
    if (loading())
        v.resize(static_cast<std::size_t>(n));
    if (saving())
        put(v.data(), v.size());
    else if (n > 0)
        get(v.data(), v.size());
}

std::uint64_t
Archive::ioSize(std::uint64_t n, std::uint64_t min_elem_bytes)
{
    io(n);
    if (loading()) {
        const std::uint64_t remaining = readEnd_ - readPos_;
        if (min_elem_bytes == 0)
            min_elem_bytes = 1;
        if (n > remaining / min_elem_bytes)
            throw CheckpointError(
                "checkpoint corrupt: container size exceeds section '"
                + curName_ + "'");
    }
    return n;
}

void
writeFile(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        throw CheckpointError("cannot open checkpoint file for writing: "
                              + path);
    const std::size_t n =
        bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
    const bool wrote = n == bytes.size();
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !closed)
        throw CheckpointError("short write to checkpoint file: " + path);
}

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw CheckpointError("cannot open checkpoint file: " + path);
    std::vector<std::uint8_t> bytes;
    std::uint8_t buf[65536];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    const bool bad = std::ferror(f) != 0;
    std::fclose(f);
    if (bad)
        throw CheckpointError("read error on checkpoint file: " + path);
    return bytes;
}

} // namespace piton::ckpt
