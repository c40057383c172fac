/**
 * @file
 * The one parser for numeric command-line values, shared by the service
 * tools (tools/) and the reproduction benches (bench/bench_util.hh).  A
 * value must fit the variable it lands in: out of range is an error,
 * never a silent truncation (--port 70000 must not bind port 4464).
 */

#ifndef PITON_COMMON_NUMERIC_FLAG_HH
#define PITON_COMMON_NUMERIC_FLAG_HH

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>

namespace piton
{

/** `text` as a decimal integer in [0, max]; nullopt when it is missing,
 *  empty, signed, padded, not all digits, or above `max` (a value past
 *  64 bits included). */
inline std::optional<std::uint64_t>
parseUnsigned(const char *text, std::uint64_t max)
{
    if (text == nullptr)
        return std::nullopt;
    const char *end = text + std::strlen(text);
    std::uint64_t v = 0;
    const auto [stop, ec] = std::from_chars(text, end, v);
    if (ec != std::errc{} || stop != end || v > max)
        return std::nullopt;
    return v;
}

/** Parse the value of `flag` into `dest`, bounded by the maximum of its
 *  type; otherwise print one line naming the flag and exit with 2. */
template <typename T>
void
parseFlag(T &dest, const char *prog, const char *flag, const char *text)
{
    const auto v = parseUnsigned(
        text, static_cast<std::uint64_t>(std::numeric_limits<T>::max()));
    if (!v) {
        std::fprintf(stderr, "%s: %s %s%s%s\n", prog,
                     text ? "bad numeric value for" : "missing value for",
                     flag, text ? ": " : "", text ? text : "");
        std::exit(2);
    }
    dest = static_cast<T>(*v);
}

} // namespace piton

#endif // PITON_COMMON_NUMERIC_FLAG_HH
