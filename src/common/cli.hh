/**
 * @file
 * The one command-line parser.  Every bench, tool and example declares,
 * at the top of main, exactly the flags and positionals it reads, each
 * bound to one of its own variables:
 *
 *   std::uint32_t samples = 48;
 *   unsigned threads = 0;
 *   CommandLine()
 *       .count("--samples", samples, 1)
 *       .count("--threads", threads, 0, maxWorkerThreads())
 *       .parse(argc, argv);
 *
 * A name that begins with '-' declares a flag; any other name declares
 * a positional.  Positionals fill in declaration order and each is
 * optional.  Anything the table does not accept -- an unknown or
 * repeated flag, a flag missing its value, a value that is not a number
 * of the flag's kind or lies outside its range, a choice not on its
 * list, an argument beyond the declared positionals -- prints one error
 * line and a usage line generated from the table to stderr and exits
 * with status 2, before the program prints or does anything else.
 * Repeats are errors, never last-one-wins: a stale flag left in a
 * wrapper script must fail loudly.
 *
 * Numbers must fit the variable they land in: out of range is an
 * error, never a silent truncation (--port 70000 must not bind port
 * 4464).  Worker-thread counts are bounded by maxWorkerThreads() as
 * well: each worker is an OS thread, started before any work is queued.
 */

#ifndef PITON_COMMON_CLI_HH
#define PITON_COMMON_CLI_HH

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace piton
{

/** `text` as an integer in [0, max], decimal or (radix 16, with an
 *  optional "0x") hexadecimal; nullopt when it is missing, empty,
 *  signed, padded, not all digits, or above `max` (a value past 64
 *  bits included). */
inline std::optional<std::uint64_t>
parseUnsigned(const char *text, std::uint64_t max, int radix = 10)
{
    if (text == nullptr)
        return std::nullopt;
    if (radix == 16 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X'))
        text += 2;
    const char *end = text + std::strlen(text);
    std::uint64_t v = 0;
    const auto [stop, ec] = std::from_chars(text, end, v, radix);
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

/** A binary's table of flags and positionals (see the file comment). */
class CommandLine
{
  public:
    /** A switch: `dest` becomes true when the flag is present. */
    CommandLine &flag(const char *name, bool &dest);

    /** An unsigned integer in [min, max], decimal or, at radix 16,
     *  hexadecimal; `max` is capped at what `dest` holds. */
    template <typename T>
    CommandLine &
    count(const char *name, T &dest, std::uint64_t min = 0,
          std::uint64_t max = std::numeric_limits<T>::max(), int radix = 10)
    {
        max = std::min<std::uint64_t>(max, std::numeric_limits<T>::max());
        return add(name, "N", countRange(min, max, radix),
                   [&dest, min, max, radix](const char *v) {
                       const auto n = parseUnsigned(v, max, radix);
                       if (!n || *n < min)
                           return false;
                       dest = static_cast<T>(*n);
                       return true;
                   });
    }

    /** A finite real number in [lo, hi]. */
    CommandLine &real(const char *name, double &dest, double lo, double hi);

    /** Any text; `metavar` names it in the usage line. */
    CommandLine &text(const char *name, std::string &dest,
                      const char *metavar);

    /** One of `choices`, stored as given. */
    CommandLine &choice(const char *name, std::string &dest,
                        std::vector<std::string> choices);

    /** Parse argv[1..argc) against the table, storing each value into
     *  its variable; on any error exit 2 as the file comment says. */
    void parse(int argc, char **argv);

    /** Exit 2 with `message` and the usage line: for a rule the table
     *  cannot state, e.g. one flag that requires another. */
    [[noreturn]] void fail(const std::string &message) const;

  private:
    struct Spec
    {
        std::string name;
        /** Placeholder for the value; empty for a switch. */
        std::string metavar;
        /** What a valid value is, for the error line. */
        std::string range;
        std::function<bool(const char *)> set;
    };

    static std::string countRange(std::uint64_t min, std::uint64_t max,
                                  int radix);
    CommandLine &add(const char *name, std::string metavar,
                     std::string range,
                     std::function<bool(const char *)> set);

    std::vector<Spec> specs_;
    std::string prog_ = "?";
};

} // namespace piton

#endif // PITON_COMMON_CLI_HH
