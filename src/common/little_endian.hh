/**
 * @file
 * The one little-endian scalar codec behind every byte layout the
 * simulator writes: checkpoint images (checkpoint/archive.hh), service
 * wire messages (service/wire.hh) and content hashes (common/hash.hh).
 * Explicit shifts keep each layout defined on any host; compilers fold
 * them into plain loads and stores on little-endian targets.
 */

#ifndef PITON_COMMON_LITTLE_ENDIAN_HH
#define PITON_COMMON_LITTLE_ENDIAN_HH

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace piton
{

template <std::unsigned_integral T>
void
storeLe(std::uint8_t *p, T v)
{
    for (std::size_t i = 0; i < sizeof(T); ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

template <std::unsigned_integral T>
T
loadLe(const std::uint8_t *p)
{
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
        v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
    return v;
}

/** Append `v` to `out`.  Byte-wise: GCC 12 mis-sizes a range insert of
 *  a small array into a vector (-Wstringop-overflow). */
template <std::unsigned_integral T>
void
putLe(std::vector<std::uint8_t> &out, T v)
{
    std::uint8_t b[sizeof(T)];
    storeLe(b, v);
    for (const std::uint8_t x : b)
        out.push_back(x);
}

} // namespace piton

#endif // PITON_COMMON_LITTLE_ENDIAN_HH
