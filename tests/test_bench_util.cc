/**
 * @file
 * parseBenchArgs contract: the common bench parser accepts exactly the
 * common flag set (--samples, --threads, --out) plus the caller's
 * allow-list and hard-errors — usage to stderr, exit 2 — on anything
 * else.  Silent acceptance of a misspelled flag, or of a flag the bench
 * does not read, would silently run the wrong experiment.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../bench/bench_util.hh"

namespace
{

using piton::bench::BenchArgs;
using piton::bench::parseBenchArgs;

/** argv builder (parseBenchArgs wants mutable char**). */
class Argv
{
  public:
    explicit Argv(std::vector<std::string> args) : strings_(std::move(args))
    {
        for (auto &s : strings_)
            ptrs_.push_back(s.data());
    }

    int argc() const { return static_cast<int>(ptrs_.size()); }
    char **argv() { return ptrs_.data(); }

  private:
    std::vector<std::string> strings_;
    std::vector<char *> ptrs_;
};

TEST(BenchUtil, ParsesTheCommonFlagSet)
{
    // The checkpoint and governor flags are caller extras, as in the
    // benches that read them.
    Argv a({"bench", "--samples", "32", "--threads", "4", "--out", "/tmp/x",
            "--checkpoint-every", "10", "--checkpoint-out", "ck.bin",
            "--resume-from", "old.bin", "--governor", "theas",
            "--scenario", "s.kv"});
    const BenchArgs args = parseBenchArgs(
        a.argc(), a.argv(), 128, 1, {}, 0,
        {"--checkpoint-every", "--checkpoint-out", "--resume-from",
         "--governor", "--scenario"});
    EXPECT_EQ(args.samples, 32u);
    EXPECT_EQ(args.threads, 4u);
    EXPECT_EQ(args.outDir, "/tmp/x");
    EXPECT_EQ(args.optionValue("--checkpoint-every"), "10");
    EXPECT_EQ(args.optionValue("--checkpoint-out"), "ck.bin");
    EXPECT_EQ(args.optionValue("--resume-from"), "old.bin");
    EXPECT_EQ(args.optionValue("--governor"), "theas");
    EXPECT_EQ(args.optionValue("--scenario"), "s.kv");
}

TEST(BenchUtil, DefaultsApplyWithoutFlags)
{
    Argv a({"bench"});
    const BenchArgs args = parseBenchArgs(a.argc(), a.argv(), 64, 2);
    EXPECT_EQ(args.samples, 64u);
    EXPECT_EQ(args.threads, 2u);
    EXPECT_TRUE(args.outDir.empty());
}

TEST(BenchUtil, UnknownFlagIsAHardError)
{
    Argv a({"bench", "--sampels", "32"}); // typo'd flag
    EXPECT_EXIT(parseBenchArgs(a.argc(), a.argv()),
                testing::ExitedWithCode(2), "unknown flag");
}

TEST(BenchUtil, MissingValueIsAHardError)
{
    Argv a({"bench", "--samples"});
    EXPECT_EXIT(parseBenchArgs(a.argc(), a.argv()),
                testing::ExitedWithCode(2), "missing value");
}

TEST(BenchUtil, NonNumericValueIsAHardError)
{
    Argv a({"bench", "--threads", "many"});
    EXPECT_EXIT(parseBenchArgs(a.argc(), a.argv()),
                testing::ExitedWithCode(2), "bad numeric value");
}

TEST(BenchUtil, ThreadsAboveTheWorkerCapIsAHardError)
{
    // The cap comes from the host; the parser exits before any bench
    // could start a thread.
    const std::string over = std::to_string(piton::maxWorkerThreads() + 1);
    Argv a({"bench", "--threads", over});
    EXPECT_EXIT(parseBenchArgs(a.argc(), a.argv()),
                testing::ExitedWithCode(2), "bad numeric value for: --threads");
    Argv ok({"bench", "--threads", std::to_string(piton::maxWorkerThreads())});
    EXPECT_EQ(parseBenchArgs(ok.argc(), ok.argv()).threads,
              piton::maxWorkerThreads());
}

TEST(BenchUtil, NegativeValueIsAHardError)
{
    Argv a({"bench", "--samples", "-3"});
    EXPECT_EXIT(parseBenchArgs(a.argc(), a.argv()),
                testing::ExitedWithCode(2), "");
}

TEST(BenchUtil, ExcessPositionalIsAHardError)
{
    Argv a({"bench", "chip2"});
    EXPECT_EXIT(parseBenchArgs(a.argc(), a.argv()),
                testing::ExitedWithCode(2), "unexpected argument");
}

TEST(BenchUtil, AllowListedExtrasParse)
{
    Argv a({"bench", "--full", "--port", "1234", "chip2"});
    const BenchArgs args = parseBenchArgs(a.argc(), a.argv(), 128, 1,
                                          {"--full"}, 1, {"--port"});
    EXPECT_TRUE(args.hasFlag("--full"));
    EXPECT_FALSE(args.hasFlag("--fast"));
    EXPECT_EQ(args.optionValue("--port"), "1234");
    EXPECT_EQ(args.optionValue("--host", "localhost"), "localhost");
    ASSERT_EQ(args.positionals.size(), 1u);
    EXPECT_EQ(args.positionals[0], "chip2");
}

TEST(BenchUtil, DuplicateExtraOptionIsAHardError)
{
    // Regression: this used to silently resolve last-one-wins, which
    // let a stale flag in a wrapper script shadow the intended value.
    Argv a({"bench", "--port", "1", "--port", "2"});
    EXPECT_EXIT(parseBenchArgs(a.argc(), a.argv(), 128, 1, {}, 0,
                               {"--port"}),
                testing::ExitedWithCode(2), "duplicate flag");
}

TEST(BenchUtil, DuplicateCommonFlagIsAHardError)
{
    Argv a({"bench", "--samples", "8", "--samples", "16"});
    EXPECT_EXIT(parseBenchArgs(a.argc(), a.argv()),
                testing::ExitedWithCode(2), "duplicate flag");
}

TEST(BenchUtil, DuplicateBooleanExtraIsAHardError)
{
    Argv a({"bench", "--full", "--full"});
    EXPECT_EXIT(parseBenchArgs(a.argc(), a.argv(), 128, 1, {"--full"}),
                testing::ExitedWithCode(2), "duplicate flag");
}

TEST(BenchUtil, RepeatedPositionalsStillParse)
{
    // Only dash-flags dedup; positional values may legitimately repeat.
    Argv a({"bench", "x", "x"});
    const BenchArgs args = parseBenchArgs(a.argc(), a.argv(), 128, 1, {}, 2);
    ASSERT_EQ(args.positionals.size(), 2u);
}

TEST(BenchUtil, ExtraOptionMissingValueIsAHardError)
{
    Argv a({"bench", "--port"});
    EXPECT_EXIT(parseBenchArgs(a.argc(), a.argv(), 128, 1, {}, 0,
                               {"--port"}),
                testing::ExitedWithCode(2), "missing value");
}

TEST(BenchUtil, SampledWithResumeFromIsAHardError)
{
    // No bench allows both: a sampled bench does not list the
    // checkpoint flags, so the unknown-flag error rejects them.
    Argv a({"bench", "--sampled", "--resume-from", "x"});
    EXPECT_EXIT(parseBenchArgs(a.argc(), a.argv(), 128, 1, {"--sampled"}),
                testing::ExitedWithCode(2), "unknown flag: --resume-from");
}

TEST(BenchUtil, NonAllowListedExtraIsStillUnknown)
{
    Argv a({"bench", "--port", "1234"});
    EXPECT_EXIT(parseBenchArgs(a.argc(), a.argv(), 128, 1, {"--full"}, 0),
                testing::ExitedWithCode(2), "unknown flag");
}

} // namespace
