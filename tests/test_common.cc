/**
 * @file
 * Unit tests for the common substrate: statistics, RNG, tables.
 */

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cli.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/types.hh"

namespace piton
{
namespace
{

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, MeanAndStddevMatchClosedForm)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0); // classic textbook dataset
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SingleSampleHasZeroSpread)
{
    RunningStats s;
    s.add(42.0);
    EXPECT_DOUBLE_EQ(s.mean(), 42.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(s.sampleStddev(), 0.0);
}

TEST(RunningStats, ResetClears)
{
    RunningStats s;
    s.add(1.0);
    s.add(2.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(RunningStats, SampleStddevUsesNMinusOne)
{
    RunningStats s;
    s.add(1.0);
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 1.0);
    EXPECT_NEAR(s.sampleStddev(), std::sqrt(2.0), 1e-12);
}

TEST(LinearFit, RecoversExactLine)
{
    LinearFit f;
    for (int x = 0; x < 10; ++x)
        f.add(x, 3.5 * x + 2.0);
    const LineFit line = f.fit();
    EXPECT_NEAR(line.slope, 3.5, 1e-12);
    EXPECT_NEAR(line.intercept, 2.0, 1e-12);
    EXPECT_NEAR(line.r2, 1.0, 1e-12);
}

TEST(LinearFit, NoisyLineHasReasonableR2)
{
    Rng rng(7);
    LinearFit f;
    for (int x = 0; x < 100; ++x)
        f.add(x, 2.0 * x + rng.gaussian(0.0, 1.0));
    const LineFit line = f.fit();
    EXPECT_NEAR(line.slope, 2.0, 0.05);
    EXPECT_GT(line.r2, 0.99);
}

TEST(LinearFit, ConstantYGivesZeroSlope)
{
    LinearFit f;
    f.add(0.0, 5.0);
    f.add(1.0, 5.0);
    f.add(2.0, 5.0);
    const LineFit line = f.fit();
    EXPECT_DOUBLE_EQ(line.slope, 0.0);
    EXPECT_DOUBLE_EQ(line.intercept, 5.0);
    EXPECT_DOUBLE_EQ(line.r2, 1.0);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(42);
    RunningStats s;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        s.add(u);
    }
    EXPECT_NEAR(s.mean(), 0.5, 0.01);
    EXPECT_NEAR(s.stddev(), std::sqrt(1.0 / 12.0), 0.01);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(42);
    RunningStats s;
    for (int i = 0; i < 50000; ++i)
        s.add(rng.gaussian(10.0, 3.0));
    EXPECT_NEAR(s.mean(), 10.0, 0.1);
    EXPECT_NEAR(s.stddev(), 3.0, 0.1);
}

TEST(Rng, BelowIsUnbiasedAndInRange)
{
    Rng rng(9);
    std::array<int, 5> buckets{};
    for (int i = 0; i < 50000; ++i) {
        const auto v = rng.below(5);
        ASSERT_LT(v, 5u);
        ++buckets[v];
    }
    for (int count : buckets)
        EXPECT_NEAR(count, 10000, 500);
}

TEST(Rng, ForkDecorrelates)
{
    Rng a(5);
    Rng child = a.fork();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == child.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(TextTable, AlignsAndCounts)
{
    TextTable t({"Name", "Value"});
    t.addRow({"alpha", "1"});
    t.addRow({"bb", "22"});
    EXPECT_EQ(t.rowCount(), 2u);
    std::ostringstream os;
    t.print(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("Name"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(TextTable, RowWidthMismatchPanics)
{
    TextTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), std::logic_error);
}

TEST(CsvWriter, QuotesSpecialCells)
{
    std::ostringstream os;
    CsvWriter w(os);
    w.writeRow({"plain", "with,comma", "with\"quote"});
    EXPECT_EQ(os.str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST(Format, FixedAndPlusMinus)
{
    EXPECT_EQ(fmtF(3.14159, 2), "3.14");
    EXPECT_EQ(fmtPm(389.32, 1.46, 1), "389.3±1.5");
}

TEST(Units, RoundTripConversions)
{
    EXPECT_DOUBLE_EQ(wToMw(mwToW(123.0)), 123.0);
    EXPECT_DOUBLE_EQ(jToPj(pjToJ(7.5)), 7.5);
    EXPECT_DOUBLE_EQ(jToNj(njToJ(7.5)), 7.5);
    EXPECT_DOUBLE_EQ(hzToMhz(mhzToHz(500.05)), 500.05);
}

TEST(NumericFlag, AcceptsDecimalsUpToTheBound)
{
    EXPECT_EQ(parseUnsigned("0", 65535), 0u);
    EXPECT_EQ(parseUnsigned("65535", 65535), 65535u);
    EXPECT_EQ(parseUnsigned("4294967295", 0xffffffffu), 0xffffffffu);
    EXPECT_EQ(parseUnsigned("18446744073709551615", UINT64_MAX),
              UINT64_MAX);
}

TEST(NumericFlag, RejectsValuesAboveTheBound)
{
    // The values the service tools used to truncate: --port 70000 bound
    // port 4464, and --budget 4294967297 ran a budget of 1.
    EXPECT_FALSE(parseUnsigned("70000", 65535));
    EXPECT_FALSE(parseUnsigned("65536", 65535));
    EXPECT_FALSE(parseUnsigned("4294967297", 0xffffffffu));
    EXPECT_FALSE(parseUnsigned("2147483648", 0x7fffffff));
    // Overflow of 64 bits is out of range too, never a wrapped value.
    EXPECT_FALSE(parseUnsigned("18446744073709551616", UINT64_MAX));
    EXPECT_FALSE(parseUnsigned("99999999999999999999999", UINT64_MAX));
}

TEST(NumericFlag, RejectsAnythingButPlainDigits)
{
    for (const char *bad : {"", "-1", "+1", " 1", "1 ", "1x", "0x10", "1e3",
                            "1.5", "port"})
        EXPECT_FALSE(parseUnsigned(bad, UINT64_MAX)) << '"' << bad
                                                             << '"';
    EXPECT_FALSE(parseUnsigned(nullptr, UINT64_MAX));
}

/** Parse `flag value` (no value when null) through a one-flag table
 *  that binds `dest`, bounded by `max`. */
template <typename T>
void
parseFlag(T &dest, const char *flag, const char *value,
          std::uint64_t max = std::numeric_limits<T>::max())
{
    std::vector<std::string> args = {"prog", flag};
    if (value != nullptr)
        args.emplace_back(value);
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    CommandLine().count(flag, dest, 0, max).parse(
        static_cast<int>(argv.size()), argv.data());
}

TEST(NumericFlag, ParseFlagBoundsByTheDestinationType)
{
    std::uint16_t port = 0;
    parseFlag(port, "--port", "7425");
    EXPECT_EQ(port, 7425);
    int chip = -1;
    parseFlag(chip, "--chip", "2147483647");
    EXPECT_EQ(chip, 2147483647);
    EXPECT_EXIT(parseFlag(port, "--port", "70000"),
                ::testing::ExitedWithCode(2),
                "bad value for --port: 70000");
    std::uint32_t budget = 0;
    EXPECT_EXIT(parseFlag(budget, "--budget", "4294967297"),
                ::testing::ExitedWithCode(2), "--budget");
    EXPECT_EXIT(parseFlag(chip, "--chip", "2147483648"),
                ::testing::ExitedWithCode(2), "--chip");
    EXPECT_EXIT(parseFlag(port, "--port", nullptr),
                ::testing::ExitedWithCode(2), "missing value for: --port");
}

TEST(NumericFlag, WorkerCountsAreCappedPerHardwareThread)
{
    EXPECT_EQ(maxWorkerThreads(1), kWorkersPerHardwareThread);
    EXPECT_EQ(maxWorkerThreads(4), 4 * kWorkersPerHardwareThread);
    // An unknown hardware_concurrency() (0) still allows some workers.
    EXPECT_EQ(maxWorkerThreads(0), kWorkersPerHardwareThread);
    EXPECT_EQ(maxWorkerThreads(), maxWorkerThreads(
                                      std::thread::hardware_concurrency()));

    // The tools' --threads: 0 (all hardware threads) and the cap parse;
    // one above it, or the old 32-bit maximum, exits with 2.
    const unsigned cap = maxWorkerThreads(2);
    unsigned threads = 99;
    parseFlag(threads, "--threads", "0", cap);
    EXPECT_EQ(threads, 0u);
    parseFlag(threads, "--threads", std::to_string(cap).c_str(), cap);
    EXPECT_EQ(threads, cap);
    EXPECT_EXIT(parseFlag(threads, "--threads",
                          std::to_string(cap + 1).c_str(), cap),
                ::testing::ExitedWithCode(2), "bad value for --threads");
    EXPECT_EXIT(parseFlag(threads, "--threads", "4294967295", cap),
                ::testing::ExitedWithCode(2), "--threads");
}

} // namespace
} // namespace piton
