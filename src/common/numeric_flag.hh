/**
 * @file
 * The one parser for numeric command-line values, shared by the service
 * tools (tools/) and the reproduction benches (bench/bench_util.hh).  A
 * value must fit the variable it lands in: out of range is an error,
 * never a silent truncation (--port 70000 must not bind port 4464).
 * Worker-thread counts are bounded by maxWorkerThreads() as well: each
 * worker is an OS thread, started before any work is queued.
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
#include <thread>

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

/** Worker threads a flag may ask for per hardware thread. */
inline constexpr unsigned kWorkersPerHardwareThread = 8;

/** The most worker threads a --threads flag accepts on a host with `hw`
 *  hardware threads (0, "unknown", counts as 1). */
inline unsigned
maxWorkerThreads(unsigned hw = std::thread::hardware_concurrency())
{
    return kWorkersPerHardwareThread * (hw != 0 ? hw : 1);
}

/** Parse the value of `flag` into `dest`, bounded by `max` (default: the
 *  maximum of its type); otherwise print one line naming the flag and
 *  exit with 2. */
template <typename T>
void
parseFlag(T &dest, const char *prog, const char *flag, const char *text,
          std::uint64_t max = std::numeric_limits<T>::max())
{
    const auto v = parseUnsigned(text, max);
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
