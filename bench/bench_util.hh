/**
 * @file
 * Shared helpers for the reproduction benches: banner printing and the
 * one common command-line parser.  Every bench that takes arguments
 * goes through parseBenchArgs so the flag set, defaults, and the
 * hard-error behaviour on unknown flags are identical across binaries.
 */

#ifndef PITON_BENCH_BENCH_UTIL_HH
#define PITON_BENCH_BENCH_UTIL_HH

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

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
    /** Periodic checkpoint cadence in sample windows
     *  (--checkpoint-every; 0 = disabled). */
    std::uint32_t checkpointEvery = 0;
    /** Checkpoint file to write (--checkpoint-out; empty = none). */
    std::string checkpointOut;
    /** Checkpoint file to resume from (--resume-from; empty = cold
     *  start). */
    std::string resumeFrom;
    /** DVFS governor policy (--governor; empty = bench default, which
     *  is the static-table "none" policy). */
    std::string governor;
    /** Scenario kv-file (--scenario; empty = the bench's built-in
     *  scenario).  See src/governor/scenario.hh for the schema. */
    std::string scenario;
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
                 " [--checkpoint-every N] [--checkpoint-out FILE]"
                 " [--resume-from FILE] [--governor POLICY]"
                 " [--scenario FILE] [extra flags] [positionals]\n",
                 prog);
    std::exit(2);
}

inline long
numericValue(const char *prog, const char *flag, const char *value)
{
    if (value == nullptr)
        usageError(prog, "missing value for", flag);
    char *end = nullptr;
    errno = 0;
    const long v = std::strtol(value, &end, 10);
    if (end == value || *end != '\0' || v < 0 || errno == ERANGE
        || v > 0x7fffffffL) // fits the uint32_t/unsigned fields
        usageError(prog, "bad numeric value for", flag);
    return v;
}

} // namespace detail

/**
 * Parse the common bench flags:
 *   --samples N         monitor samples per measurement
 *   --threads N         sweep worker threads (0 = all hardware threads)
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
                detail::numericValue(prog, a, next));
            ++i;
        } else if (std::strcmp(a, "--out") == 0) {
            if (next == nullptr)
                detail::usageError(prog, "missing value for", a);
            args.outDir = next;
            ++i;
        } else if (std::strcmp(a, "--checkpoint-every") == 0) {
            args.checkpointEvery = static_cast<std::uint32_t>(
                detail::numericValue(prog, a, next));
            ++i;
        } else if (std::strcmp(a, "--checkpoint-out") == 0) {
            if (next == nullptr)
                detail::usageError(prog, "missing value for", a);
            args.checkpointOut = next;
            ++i;
        } else if (std::strcmp(a, "--resume-from") == 0) {
            if (next == nullptr)
                detail::usageError(prog, "missing value for", a);
            args.resumeFrom = next;
            ++i;
        } else if (std::strcmp(a, "--governor") == 0) {
            if (next == nullptr)
                detail::usageError(prog, "missing value for", a);
            args.governor = next;
            ++i;
        } else if (std::strcmp(a, "--scenario") == 0) {
            if (next == nullptr)
                detail::usageError(prog, "missing value for", a);
            args.scenario = next;
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

    // Cross-flag validation: mutually exclusive or dependent flag
    // combinations are hard errors here, not per-bench warnings, so
    // every binary rejects them identically.
    if (args.checkpointEvery > 0 && args.checkpointOut.empty())
        detail::usageError(prog, "--checkpoint-every requires",
                           "--checkpoint-out");
    if (args.hasFlag("--sampled")) {
        // A sampled run re-simulates slices forked from its own
        // profile; layering it over an unrelated resume image or a
        // periodic checkpoint stream is undefined.
        if (!args.resumeFrom.empty())
            detail::usageError(prog, "--sampled is incompatible with",
                               "--resume-from");
        if (args.checkpointEvery > 0 || !args.checkpointOut.empty())
            detail::usageError(prog, "--sampled is incompatible with",
                               "--checkpoint-every/--checkpoint-out");
    }
    return args;
}

} // namespace piton::bench

#endif // PITON_BENCH_BENCH_UTIL_HH
