#include "common/hash.hh"

#include "common/little_endian.hh"

namespace piton
{

namespace
{

// FNV-1a 128-bit parameters (Fowler/Noll/Vo reference values).
constexpr unsigned __int128
u128(std::uint64_t hi, std::uint64_t lo)
{
    return (static_cast<unsigned __int128>(hi) << 64) | lo;
}

constexpr unsigned __int128 kOffsetBasis =
    u128(0x6c62272e07bb0142ULL, 0x62b821756295c58dULL);
constexpr unsigned __int128 kPrime = u128(0x0000000001000000ULL,
                                          0x000000000000013bULL);

} // namespace

Hasher::Hasher() : state_(kOffsetBasis) {}

Hasher &
Hasher::update(const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        state_ ^= p[i];
        state_ *= kPrime;
    }
    return *this;
}

Hasher &
Hasher::update(const std::vector<std::uint8_t> &bytes)
{
    return update(bytes.data(), bytes.size());
}

Hasher &
Hasher::update(const std::string &s)
{
    return update(s.data(), s.size());
}

Hasher &
Hasher::updateU32(std::uint32_t v)
{
    std::uint8_t b[sizeof(v)];
    storeLe(b, v);
    return update(b, sizeof(b));
}

Hash128
Hasher::digest() const
{
    return Hash128{static_cast<std::uint64_t>(state_ >> 64),
                   static_cast<std::uint64_t>(state_)};
}

Hash128
hash128(const void *data, std::size_t len)
{
    return Hasher().update(data, len).digest();
}

Hash128
hash128(const std::vector<std::uint8_t> &bytes)
{
    return hash128(bytes.data(), bytes.size());
}

std::string
Hash128::hex() const
{
    static const char *digits = "0123456789abcdef";
    std::string out(32, '0');
    for (int i = 0; i < 16; ++i) {
        const std::uint64_t half = i < 8 ? hi : lo;
        const int shift = 8 * (7 - (i % 8));
        const std::uint8_t byte =
            static_cast<std::uint8_t>(half >> shift);
        out[2 * i] = digits[byte >> 4];
        out[2 * i + 1] = digits[byte & 0xf];
    }
    return out;
}

} // namespace piton
