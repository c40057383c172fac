/**
 * @file
 * CommandLine contract: a binary accepts exactly the flags and
 * positionals its table declares, stores each into its variable, and
 * hard-errors -- one error line and the usage line to stderr, exit 2 --
 * on anything else.  Silent acceptance of a misspelled flag, or of a
 * flag the binary does not read, would silently run the wrong
 * experiment.
 *
 * The argv cases are one table; each row is registered as its own test.
 * The rows ported from the former bench-only parser keep their test
 * names (BenchUtil.*).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hh"

namespace
{

using piton::CommandLine;
using piton::maxWorkerThreads;

/** What the test table writes into. */
struct Vars
{
    std::uint32_t samples = 128;
    unsigned threads = 1;
    std::string out;
    bool full = false;
    bool sampled = false;
    std::uint16_t port = 0;
    double vdd = 1.0;
    std::string engine = "sa";
    std::string first, second;

    bool operator==(const Vars &) const = default;
};

/** A bench-like table: the common counts, a text, two switches, a
 *  bounded port, a real, a choice and two positionals. */
void
parse(Vars &v, std::vector<std::string> args)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    CommandLine()
        .count("--samples", v.samples, 1)
        .count("--threads", v.threads, 0, maxWorkerThreads())
        .text("--out", v.out, "DIR")
        .flag("--full", v.full)
        .flag("--sampled", v.sampled)
        .count("--port", v.port)
        .real("--vdd", v.vdd, 0.8, 1.2)
        .choice("--engine", v.engine, {"sa", "ga", "random"})
        .text("first", v.first, "X")
        .text("second", v.second, "X")
        .parse(static_cast<int>(argv.size()), argv.data());
}

/** `s` as a POSIX extended regex matching itself. */
std::string
literal(const std::string &s)
{
    std::string r;
    for (const char c : s) {
        if (std::string("\\^$.|?*+()[]{}").find(c) != std::string::npos)
            r += '\\';
        r += c;
    }
    return r;
}

/** One argv and what parsing it must do. */
struct Case
{
    /** A row that parses into `want`. */
    Case(const char *s, const char *n, std::vector<std::string> a, Vars w)
        : suite(s), name(n), args(std::move(a)), want(w)
    {
    }

    /** A row that fails with `error`. */
    Case(const char *s, const char *n, std::vector<std::string> a,
         std::string e)
        : suite(s), name(n), args(std::move(a)), error(std::move(e))
    {
    }

    const char *suite;
    const char *name;
    std::vector<std::string> args;
    Vars want;
    /** The error line (a literal substring of stderr) of the exit-2
     *  failure; empty for a row that parses. */
    std::string error;
};

std::vector<Case>
cases()
{
    const std::string cap = std::to_string(maxWorkerThreads());
    const std::string over = std::to_string(maxWorkerThreads() + 1);
    Vars common;
    common.samples = 32;
    common.threads = 4;
    common.out = "/tmp/x";
    common.engine = "ga";
    common.vdd = 0.85;
    Vars extras;
    extras.full = true;
    extras.port = 1234;
    extras.first = "chip2";
    Vars at_cap;
    at_cap.threads = maxWorkerThreads();
    Vars twice;
    twice.first = twice.second = "x";
    return {
        {"BenchUtil", "ParsesTheCommonFlagSet",
         {"--samples", "32", "--threads", "4", "--out", "/tmp/x",
          "--engine", "ga", "--vdd", "0.85"},
         common},
        {"BenchUtil", "DefaultsApplyWithoutFlags", {}, Vars{}},
        {"BenchUtil", "AllowListedExtrasParse",
         {"--full", "--port", "1234", "chip2"}, extras},
        {"BenchUtil", "RepeatedPositionalsStillParse", {"x", "x"},
         twice},
        {"CommandLine", "ThreadsAtTheWorkerCapParse", {"--threads", cap},
         at_cap},
        {"BenchUtil", "UnknownFlagIsAHardError", {"--sampels", "32"},
         "prog: unknown flag: --sampels"},
        {"BenchUtil", "MissingValueIsAHardError", {"--samples"},
         "prog: missing value for: --samples"},
        {"BenchUtil", "NonNumericValueIsAHardError", {"--threads", "many"},
         "prog: bad value for --threads: many (want an integer in [0, "},
        {"BenchUtil", "ThreadsAboveTheWorkerCapIsAHardError",
         {"--threads", over}, "prog: bad value for --threads: " + over},
        {"BenchUtil", "NegativeValueIsAHardError", {"--samples", "-3"},
         "prog: bad value for --samples: -3"},
        {"BenchUtil", "ExcessPositionalIsAHardError", {"a", "b", "chip2"},
         "prog: unexpected argument: chip2"},
        {"BenchUtil", "DuplicateExtraOptionIsAHardError",
         {"--port", "1", "--port", "2"}, "prog: duplicate flag: --port"},
        {"BenchUtil", "DuplicateCommonFlagIsAHardError",
         {"--samples", "8", "--samples", "16"},
         "prog: duplicate flag: --samples"},
        {"BenchUtil", "DuplicateBooleanExtraIsAHardError",
         {"--full", "--full"}, "prog: duplicate flag: --full"},
        {"BenchUtil", "ExtraOptionMissingValueIsAHardError", {"--port"},
         "prog: missing value for: --port"},
        {"BenchUtil", "SampledWithResumeFromIsAHardError",
         {"--sampled", "--resume-from", "x"},
         "prog: unknown flag: --resume-from"},
        {"BenchUtil", "NonAllowListedExtraIsStillUnknown", {"--host", "h"},
         "prog: unknown flag: --host"},
        {"CommandLine", "CountBelowItsMinIsAHardError", {"--samples", "0"},
         "prog: bad value for --samples: 0 (want an integer in [1, "
         "4294967295])"},
        {"CommandLine", "CountAboveItsTypeIsAHardError",
         {"--port", "70000"},
         "prog: bad value for --port: 70000 (want an integer in [0, "
         "65535])"},
        {"CommandLine", "RealOutOfRangeIsAHardError", {"--vdd", "1.25"},
         "prog: bad value for --vdd: 1.25 (want a finite number in "
         "[0.8, 1.2])"},
        {"CommandLine", "InfiniteRealIsAHardError", {"--vdd", "inf"},
         "prog: bad value for --vdd: inf"},
        {"CommandLine", "NanRealIsAHardError", {"--vdd", "nan"},
         "prog: bad value for --vdd: nan"},
        {"CommandLine", "RealWithTrailingTextIsAHardError",
         {"--vdd", "1.0V"},
         "prog: bad value for --vdd: 1.0V"},
        {"CommandLine", "BadChoiceIsAHardError", {"--engine", "xx"},
         "prog: bad value for --engine: xx (want one of sa|ga|random)"},
        {"CommandLine", "ExcessPositionalsAfterFlagsIsAHardError",
         {"--full", "a", "b", "c", "d"}, "prog: unexpected argument: c"},
    };
}

class ArgvRow : public testing::Test
{
  public:
    explicit ArgvRow(Case c) : c_(std::move(c)) {}

    void
    TestBody() override
    {
        Vars got;
        if (c_.error.empty()) {
            parse(got, c_.args);
            EXPECT_TRUE(got == c_.want);
        } else {
            EXPECT_EXIT(parse(got, c_.args), testing::ExitedWithCode(2),
                        literal(c_.error));
        }
    }

  private:
    Case c_;
};

// The factory returns testing::Test * so that rows share their suite
// with the plain TESTs below.
[[maybe_unused]] const bool kRowsRegistered = [] {
    for (const Case &c : cases())
        testing::RegisterTest(c.suite, c.name, nullptr, nullptr, __FILE__,
                              __LINE__, [c]() -> testing::Test * {
                                  return new ArgvRow(c);
                              });
    return true;
}();

TEST(CommandLine, UsageLineComesFromTheTable)
{
    Vars v;
    EXPECT_EXIT(parse(v, {"--bogus"}), testing::ExitedWithCode(2),
                literal("usage: prog [--samples N] [--threads N] [--out DIR]"
                        " [--full] [--sampled] [--port N] [--vdd X]"
                        " [--engine sa|ga|random] [first] [second]"));
}

TEST(CommandLine, EmptyTableRejectsAnyArgument)
{
    char prog[] = "prog";
    char arg[] = "--samples";
    char *argv[] = {prog, arg};
    CommandLine().parse(1, argv); // no arguments: fine
    EXPECT_EXIT(CommandLine().parse(2, argv), testing::ExitedWithCode(2),
                literal("prog: unknown flag: --samples\nusage: prog\n"));
}

TEST(CommandLine, FailReportsARuleTheTableCannotState)
{
    char prog[] = "prog";
    char *argv[] = {prog};
    std::string out;
    CommandLine cli;
    cli.text("--out", out, "FILE").parse(1, argv);
    EXPECT_EXIT(cli.fail("--every requires --out"),
                testing::ExitedWithCode(2),
                literal("prog: --every requires --out\nusage: prog"
                        " [--out FILE]"));
}

TEST(CommandLine, HexCountsTakeAnOptional0xPrefix)
{
    char prog[] = "prog";
    char with[] = "0xff";
    char without[] = "FF";
    std::uint64_t a = 0, b = 0;
    char *argv[] = {prog, with, without};
    CommandLine()
        .count("a", a, 0, UINT64_MAX, 16)
        .count("b", b, 0, UINT64_MAX, 16)
        .parse(3, argv);
    EXPECT_EQ(a, 0xffu);
    EXPECT_EQ(b, 0xffu);
}

} // namespace
