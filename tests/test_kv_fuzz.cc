/**
 * @file
 * Seeded mutation fuzz for the kv scenario parser (config/kv_file,
 * governor/scenario).
 *
 * Every committed .kv file under scenarios/ is damaged with byte flips,
 * truncations and numeric-token swaps — including 2^32 + k, -0, nan
 * and 1e400 — and handed to Scenario::fromText.  Each case must either
 * parse or throw KvError; any other exception fails the test, and the
 * suite runs under ASan/UBSan in CI.  A scenario that parses must hold
 * the values its file spells: no count narrowed, no real non-finite.
 *
 * PITON_FUZZ_ITERS overrides the case count per file (CI runs a
 * reduced count under the sanitizers).
 */

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "config/kv_file.hh"
#include "governor/scenario.hh"

namespace
{

using namespace piton;

int
fuzzIters(int def)
{
    if (const char *s = std::getenv("PITON_FUZZ_ITERS")) {
        const long v = std::strtol(s, nullptr, 10);
        if (v > 0)
            return static_cast<int>(v);
    }
    return def;
}

std::vector<std::filesystem::path>
scenarioFiles()
{
    std::vector<std::filesystem::path> out;
    for (const auto &e :
         std::filesystem::directory_iterator(PITON_SCENARIO_DIR))
        if (e.path().extension() == ".kv")
            out.push_back(e.path());
    std::sort(out.begin(), out.end());
    return out;
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** [begin, end) of one numeric token: a digit and the letters,
 *  digits, points and underscores after it (so "1e3" and "0.04" are
 *  one token each). */
struct Token
{
    std::size_t begin;
    std::size_t end;
};

std::vector<Token>
numericTokens(const std::string &text)
{
    std::vector<Token> out;
    std::size_t i = 0;
    while (i < text.size()) {
        if (!std::isdigit(static_cast<unsigned char>(text[i]))) {
            ++i;
            continue;
        }
        const std::size_t begin = i;
        while (i < text.size()
               && (std::isalnum(static_cast<unsigned char>(text[i]))
                   || text[i] == '.' || text[i] == '_'))
            ++i;
        // Digits inside a key ("phase1.cap_w") are not values.
        const bool in_key = begin > 0
                            && (std::isalpha(static_cast<unsigned char>(
                                    text[begin - 1]))
                                || text[begin - 1] == '_');
        if (!in_key)
            out.push_back({begin, i});
    }
    return out;
}

std::string
swapToken(Rng &rng)
{
    static const char *const kFixed[] = {
        "-0", "nan", "-nan", "inf", "-inf", "1e400", "-1e400", "1e-400",
        "0", "-1", "0x10", "18446744073709551616", "1.5", ""};
    if (rng.below(2) == 0) // 2^32 + k narrows to k in 32 bits
        return std::to_string((std::uint64_t{1} << 32) + rng.below(4));
    return kFixed[rng.below(sizeof(kFixed) / sizeof(*kFixed))];
}

std::string
mutate(const std::string &clean, const std::vector<Token> &tokens,
       Rng &rng)
{
    std::string text = clean;
    switch (rng.below(3)) {
    case 0: { // byte flips
        const std::uint64_t flips = 1 + rng.below(4);
        for (std::uint64_t i = 0; i < flips; ++i)
            text[rng.below(text.size())] ^=
                static_cast<char>(1 + rng.below(255));
        break;
    }
    case 1: // truncation
        text.resize(rng.below(text.size()));
        break;
    default: { // numeric-token swap
        const Token &t = tokens[rng.below(tokens.size())];
        text.replace(t.begin, t.end - t.begin, swapToken(rng));
        break;
    }
    }
    return text;
}

/** An accepted scenario holds exactly what its file spells. */
void
expectFaithful(const std::string &text, const governor::Scenario &sc)
{
    const config::KvFile kv = config::KvFile::parseText(text);
    EXPECT_EQ(sc.tiles, kv.getUint("tiles", sc.tiles));
    EXPECT_EQ(sc.threadsPerCore,
              kv.getUint("threads_per_core", sc.threadsPerCore));
    EXPECT_EQ(sc.gov.epochWindows,
              kv.getUint("epoch_windows", sc.gov.epochWindows));
    EXPECT_TRUE(std::isfinite(sc.gov.capW));
    EXPECT_TRUE(std::isfinite(sc.gov.minFreqMhz));
    for (const governor::ScenarioPhase &ph : sc.phases)
        EXPECT_TRUE(std::isfinite(ph.capW));
}

TEST(KvFuzz, ScenarioMutationsParseOrThrowKvError)
{
    const int iters = fuzzIters(2000);
    const std::vector<std::filesystem::path> files = scenarioFiles();
    ASSERT_FALSE(files.empty());
    for (std::size_t f = 0; f < files.size(); ++f) {
        SCOPED_TRACE(files[f].filename().string());
        const std::string clean = readFile(files[f]);
        ASSERT_NO_THROW(governor::Scenario::fromText(clean));
        const std::vector<Token> tokens = numericTokens(clean);
        ASSERT_FALSE(tokens.empty());

        Rng rng(0x5CE4A210u + f * 7919u);
        int accepted = 0, rejected = 0;
        for (int it = 0; it < iters; ++it) {
            const std::string text = mutate(clean, tokens, rng);
            try {
                const governor::Scenario sc =
                    governor::Scenario::fromText(text);
                expectFaithful(text, sc);
                ++accepted;
            } catch (const config::KvError &) {
                ++rejected;
            } catch (const std::exception &e) {
                ADD_FAILURE() << "case " << it << " threw untyped: "
                              << e.what() << "\n--- input ---\n" << text;
            }
        }
        EXPECT_GT(accepted, 0);
        EXPECT_GT(rejected, 0);
    }
}

} // namespace
