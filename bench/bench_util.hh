/**
 * @file
 * Shared helpers for the reproduction benches: banner printing and the
 * one common command-line parser.  Every bench that takes arguments
 * goes through parseBenchArgs so the common flags (--samples, --threads,
 * --out), their defaults, and the hard-error behaviour on unknown flags
 * are identical across binaries.  A flag only some benches read (e.g.
 * --governor, --resume-from) is on those benches' own allow-lists, so
 * every other bench rejects it.
 */

#ifndef PITON_BENCH_BENCH_UTIL_HH
#define PITON_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "common/numeric_flag.hh"

namespace piton::bench
{

inline void
banner(const char *id, const char *title)
{
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", id, title);
    std::printf("Reproduction of: McKeown et al., \"Power and Energy\n"
                "Characterization of an Open Source 25-core Manycore\n"
                "Processor\", HPCA 2018.\n");
    std::printf("==============================================================\n\n");
}

/** Parsed common bench arguments (see parseBenchArgs). */
struct BenchArgs
{
    /** Monitor samples per measurement (the paper records 128). */
    std::uint32_t samples = 128;
    /** Sweep-level worker threads (0 = all hardware threads).
     *  Results are bit-identical at any value (common/parallel.hh). */
    unsigned threads = 1;
    /** Telemetry output directory (--out); empty = no export. */
    std::string outDir;
    /** Extra boolean flags seen (from the caller's allow-list). */
    std::vector<std::string> flags;
    /** Extra valued options seen (from the caller's allow-list).  At
     *  most one entry per name: a repeated flag is a parse-time hard
     *  error, never a silent last-one-wins. */
    std::vector<std::pair<std::string, std::string>> options;
    /** Positional arguments, in order. */
    std::vector<std::string> positionals;

    bool
    hasFlag(const char *f) const
    {
        for (const auto &s : flags)
            if (s == f)
                return true;
        return false;
    }

    std::string
    optionValue(const char *name, std::string def = {}) const
    {
        for (auto it = options.rbegin(); it != options.rend(); ++it)
            if (it->first == name)
                return it->second;
        return def;
    }
};

namespace detail
{

[[noreturn]] inline void
usageError(const char *prog, const char *msg, const char *arg)
{
    std::fprintf(stderr, "%s: %s%s%s\n", prog, msg, arg ? ": " : "",
                 arg ? arg : "");
    std::fprintf(stderr,
                 "usage: %s [--samples N] [--threads N] [--out DIR]"
                 " [extra flags] [positionals]\n",
                 prog);
    std::exit(2);
}

/** `value` as a count; bounded by default to fit the uint32_t/unsigned
 *  fields. */
inline long
numericValue(const char *prog, const char *flag, const char *value,
             std::uint64_t max = 0x7fffffff)
{
    if (value == nullptr)
        usageError(prog, "missing value for", flag);
    const auto v = parseUnsigned(value, max);
    if (!v)
        usageError(prog, "bad numeric value for", flag);
    return static_cast<long>(*v);
}

} // namespace detail

/**
 * Parse the common bench flags:
 *   --samples N         monitor samples per measurement
 *   --threads N         sweep worker threads (0 = all hardware threads;
 *                       at most maxWorkerThreads())
 *   --out DIR           telemetry export directory (benches that record
 *                       telemetry write <dir>/<bench>.{csv,jsonl})
 * plus any caller-allowed boolean `extra_flags` (e.g. "--full"),
 * caller-allowed valued `extra_opts` (e.g. "--port", consuming the
 * next argument), and up to `max_positionals` positional arguments.
 * Anything else — an unknown flag, a repeated flag, a flag missing
 * its value, a non-numeric count, or an excess positional — is a hard
 * error: usage goes to stderr and the process exits with status 2.
 * Rejecting duplicates matters for reproducibility: a stale flag left
 * in a wrapper script must fail loudly, not silently lose to (or
 * override) the one appended later.
 */
inline BenchArgs
parseBenchArgs(int argc, char **argv, std::uint32_t def_samples = 128,
               unsigned def_threads = 1,
               std::initializer_list<const char *> extra_flags = {},
               std::size_t max_positionals = 0,
               std::initializer_list<const char *> extra_opts = {})
{
    BenchArgs args;
    args.samples = def_samples;
    args.threads = def_threads;
    const char *prog = argc > 0 ? argv[0] : "bench";
    std::vector<std::string> seen;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        const char *next = i + 1 < argc ? argv[i + 1] : nullptr;
        if (a[0] == '-') {
            for (const std::string &s : seen)
                if (s == a)
                    detail::usageError(prog, "duplicate flag", a);
            seen.emplace_back(a);
        }
        if (std::strcmp(a, "--samples") == 0) {
            args.samples = static_cast<std::uint32_t>(
                detail::numericValue(prog, a, next));
            ++i;
        } else if (std::strcmp(a, "--threads") == 0) {
            args.threads = static_cast<unsigned>(
                detail::numericValue(prog, a, next, maxWorkerThreads()));
            ++i;
        } else if (std::strcmp(a, "--out") == 0) {
            if (next == nullptr)
                detail::usageError(prog, "missing value for", a);
            args.outDir = next;
            ++i;
        } else if (a[0] == '-') {
            bool known = false;
            for (const char *f : extra_flags)
                if (std::strcmp(a, f) == 0) {
                    args.flags.emplace_back(a);
                    known = true;
                    break;
                }
            for (const char *o : extra_opts) {
                if (known || std::strcmp(a, o) != 0)
                    continue;
                if (next == nullptr)
                    detail::usageError(prog, "missing value for", a);
                args.options.emplace_back(a, next);
                known = true;
                ++i;
            }
            if (!known)
                detail::usageError(prog, "unknown flag", a);
        } else {
            if (args.positionals.size() >= max_positionals)
                detail::usageError(prog, "unexpected argument", a);
            args.positionals.emplace_back(a);
        }
    }
    return args;
}

} // namespace piton::bench

#endif // PITON_BENCH_BENCH_UTIL_HH
