#include "checkpoint/archive.hh"

#include <array>
#include <bit>
#include <cstddef>
#include <cstdio>

#include "common/little_endian.hh"

namespace piton::ckpt
{

namespace
{

/** Slicing-by-8 tables: [0] is the bytewise table of the reflected
 *  IEEE polynomial, [k] advances a byte's remainder through k more
 *  zero bytes. */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
}

/** Shortest zero run worth its own pack token: splitting a literal
 *  around a run costs two varint bytes. */
constexpr std::size_t kMinZeroRun = 3;

/** End of the zero run that starts at `i` (`i` itself when p[i] is not
 *  zero), a word at a time. */
std::size_t
zeroRunEnd(const std::uint8_t *p, std::size_t n, std::size_t i)
{
    for (; i + 8 <= n; i += 8) {
        const auto w = loadLe<std::uint64_t>(p + i);
        if (w != 0)
            return i + static_cast<std::size_t>(std::countr_zero(w)) / 8;
    }
    while (i < n && p[i] == 0)
        ++i;
    return i;
}

/** First zero byte at or after `i` (`n` when none), a word at a time.
 *  The has-zero-byte mask is exact for the lowest zero byte: borrows
 *  only run upward from it. */
std::size_t
nextZeroByte(const std::uint8_t *p, std::size_t n, std::size_t i)
{
    constexpr std::uint64_t kLow = 0x0101010101010101ull;
    constexpr std::uint64_t kHigh = 0x8080808080808080ull;
    for (; i + 8 <= n; i += 8) {
        const auto w = loadLe<std::uint64_t>(p + i);
        const std::uint64_t z = (w - kLow) & ~w & kHigh;
        if (z != 0)
            return i + static_cast<std::size_t>(std::countr_zero(z)) / 8;
    }
    while (i < n && p[i] != 0)
        ++i;
    return i;
}

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (; v >= 0x80; v >>= 7)
        out.push_back(static_cast<std::uint8_t>(v | 0x80));
    out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t
getVarint(const std::vector<std::uint8_t> &in, std::size_t &pos)
{
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        Archive::check(pos < in.size(), "packed image truncated");
        const std::uint8_t b = in[pos++];
        Archive::check(shift < 63 || b <= 1, "packed image varint overflow");
        v |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
        if ((b & 0x80u) == 0)
            return v;
    }
    throw CheckpointError("packed image varint overflow");
}

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t len)
{
    static const CrcTables t = makeCrcTables();
    std::uint32_t c = 0xFFFFFFFFu;
    for (; len >= 8; data += 8, len -= 8) {
        const std::uint32_t lo = c ^ loadLe<std::uint32_t>(data);
        const std::uint32_t hi = loadLe<std::uint32_t>(data + 4);
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu]
            ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24]
            ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu]
            ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (std::size_t i = 0; i < len; ++i)
        c = t[0][(c ^ data[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t>
packImage(const std::vector<std::uint8_t> &raw)
{
    const std::uint8_t *p = raw.data();
    const std::size_t n = raw.size();
    std::vector<std::uint8_t> out;
    putVarint(out, n);
    for (std::size_t i = 0; i < n;) {
        const std::size_t lit = zeroRunEnd(p, n, i);
        // The literal runs up to the next zero run worth a token.
        std::size_t end = lit;
        while (end < n) {
            const std::size_t z = nextZeroByte(p, n, end);
            const std::size_t z_end = zeroRunEnd(p, n, z);
            if (z_end - z >= kMinZeroRun) {
                end = z;
                break;
            }
            end = z_end;
        }
        putVarint(out, lit - i);
        putVarint(out, end - lit);
        out.insert(out.end(), p + lit, p + end);
        i = end;
    }
    out.shrink_to_fit(); // held for the profile's lifetime
    return out;
}

std::vector<std::uint8_t>
unpackImage(const std::vector<std::uint8_t> &packed)
{
    std::size_t pos = 0;
    const std::uint64_t total = getVarint(packed, pos);
    const std::size_t body = pos;
    std::uint64_t sum = 0;
    while (pos < packed.size()) {
        const std::uint64_t zeros = getVarint(packed, pos);
        const std::uint64_t lits = getVarint(packed, pos);
        Archive::check(zeros <= total - sum && lits <= total - sum - zeros,
                       "packed image longer than its recorded length");
        Archive::check(lits <= packed.size() - pos,
                       "packed image truncated");
        sum += zeros + lits;
        pos += static_cast<std::size_t>(lits);
    }
    Archive::check(sum == total,
                   "packed image shorter than its recorded length");
    Archive::check(total <= PTRDIFF_MAX, "packed image too large");

    std::vector<std::uint8_t> out(static_cast<std::size_t>(total));
    std::size_t at = 0;
    for (pos = body; pos < packed.size();) {
        at += static_cast<std::size_t>(getVarint(packed, pos));
        const auto lits = static_cast<std::size_t>(getVarint(packed, pos));
        std::copy_n(packed.begin() + static_cast<std::ptrdiff_t>(pos), lits,
                    out.begin() + static_cast<std::ptrdiff_t>(at));
        at += lits;
        pos += lits;
    }
    return out;
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
    const std::uint32_t version = loadLe<std::uint32_t>(&b[pos]);
    pos += sizeof(std::uint32_t);
    if (version != kFormatVersion)
        throw CheckpointError(
            "checkpoint format version " + std::to_string(version)
            + " does not match this build's version "
            + std::to_string(kFormatVersion));
    const std::uint32_t nsections = loadLe<std::uint32_t>(&b[pos]);
    pos += sizeof(std::uint32_t);

    for (std::uint32_t s = 0; s < nsections; ++s) {
        check(pos + sizeof(std::uint32_t) <= b.size(),
              "checkpoint truncated: section name length");
        const std::uint32_t name_len = loadLe<std::uint32_t>(&b[pos]);
        pos += sizeof(std::uint32_t);
        check(name_len <= 256 && pos + name_len <= b.size(),
              "checkpoint truncated: section name");
        SectionEntry e;
        e.name.assign(reinterpret_cast<const char *>(&b[pos]), name_len);
        pos += name_len;
        check(pos + sizeof(std::uint64_t) + sizeof(std::uint32_t)
                  <= b.size(),
              "checkpoint truncated: section header");
        const std::uint64_t payload_len = loadLe<std::uint64_t>(&b[pos]);
        pos += sizeof(std::uint64_t);
        const std::uint32_t want_crc = loadLe<std::uint32_t>(&b[pos]);
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
        putLe(bytes_, static_cast<std::uint32_t>(curName_.size()));
        bytes_.insert(bytes_.end(), curName_.begin(), curName_.end());
        putLe(bytes_, static_cast<std::uint64_t>(cur_.size()));
        putLe(bytes_, crc32(cur_.data(), cur_.size()));
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
    putLe(out, kFormatVersion);
    putLe(out, sectionCount_);
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

template <typename T>
    requires(std::integral<T> && !std::same_as<T, bool>)
void
Archive::io(T &v)
{
    using U = std::make_unsigned_t<T>;
    std::uint8_t buf[sizeof(T)];
    if (saving()) {
        storeLe(buf, static_cast<U>(v));
        put(buf, sizeof(T));
    } else {
        get(buf, sizeof(T));
        v = static_cast<T>(loadLe<U>(buf));
    }
}

template void Archive::io(std::uint8_t &);
template void Archive::io(std::uint16_t &);
template void Archive::io(std::uint32_t &);
template void Archive::io(std::uint64_t &);
template void Archive::io(std::int64_t &);

void
Archive::io(double &v)
{
    auto bits = std::bit_cast<std::uint64_t>(v);
    io(bits);
    v = std::bit_cast<double>(bits);
}

template <typename C>
void
Archive::ioRange(C &v)
{
    const std::uint64_t n = ioSize(v.size());
    if (loading())
        v.resize(static_cast<std::size_t>(n));
    if (saving())
        put(v.data(), v.size());
    else if (n > 0)
        get(v.data(), v.size());
}

template void Archive::ioRange(std::string &);
template void Archive::ioRange(std::vector<std::uint8_t> &);

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
