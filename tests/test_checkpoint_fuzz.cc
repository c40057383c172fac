/**
 * @file
 * Whole-image checkpoint mutation fuzz.  Two real System images, each
 * of a 4-tile x 2 T/C Hist run: one under a DVFS governor and one
 * under an IntervalProfiler (the profiler refuses a governed System,
 * so one image cannot carry both sections).  Seeded mutations of the
 * payload bytes of every section, CRC fixed up each time so the bytes
 * reach the decoders, must either
 *
 *  - throw CheckpointError, after which restoring the unmutated image
 *    into the same System re-saves it byte for byte (a rejected
 *    restore leaves nothing behind that a good one does not reset), or
 *  - restore, and then run one window.  Register values and
 *    instruction words are legal state that no decoder can judge, so
 *    a mutated one may make the simulated program fault (an unaligned
 *    address); the simulator reports that as its own diagnostic,
 *    std::logic_error, and nothing else may escape the window.
 *
 * PITON_FUZZ_ITERS overrides the mutation count per image (CI runs a
 * reduced count under the sanitizers).
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "checkpoint/archive.hh"
#include "governor/governor.hh"
#include "sampling/profiler.hh"
#include "sim/system.hh"
#include "workloads/microbenchmarks.hh"

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

std::uint64_t
getLe(const std::vector<std::uint8_t> &b, std::size_t at, std::size_t width)
{
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i)
        v |= static_cast<std::uint64_t>(b.at(at + i)) << (8 * i);
    return v;
}

void
putLe(std::vector<std::uint8_t> &b, std::size_t at, std::size_t width,
      std::uint64_t v)
{
    for (std::size_t i = 0; i < width; ++i)
        b.at(at + i) = static_cast<std::uint8_t>(v >> (8 * i));
}

/** Where one section's name, CRC and payload sit inside an image. */
struct Section
{
    std::string name;
    std::size_t crcAt = 0;
    std::size_t payloadAt = 0;
    std::size_t length = 0;
};

/** Walk the section directory (magic, version, count; then per section
 *  name length, name, payload length, CRC, payload). */
std::vector<Section>
sectionsOf(const std::vector<std::uint8_t> &img)
{
    std::vector<Section> out;
    std::size_t pos = sizeof(ckpt::kMagic) + 4;
    const std::uint64_t count = getLe(img, pos, 4);
    pos += 4;
    for (std::uint64_t s = 0; s < count; ++s) {
        const std::size_t name_len = getLe(img, pos, 4);
        pos += 4;
        Section sec;
        sec.name.assign(img.begin() + static_cast<std::ptrdiff_t>(pos),
                        img.begin()
                            + static_cast<std::ptrdiff_t>(pos + name_len));
        pos += name_len;
        sec.length = getLe(img, pos, 8);
        pos += 8;
        sec.crcAt = pos;
        sec.payloadAt = pos + 4;
        pos += 4 + sec.length;
        out.push_back(sec);
    }
    return out;
}

constexpr std::uint32_t kTiles = 4;
constexpr std::uint32_t kThreadsPerCore = 2;
constexpr std::uint32_t kWindowsBeforeSave = 6;

sim::SystemOptions
fuzzOptions()
{
    sim::SystemOptions opts;
    opts.bbvBuckets = 16; // the profiler needs BBV histograms
    return opts;
}

governor::GovernorParams
governorParams()
{
    governor::GovernorParams p;
    p.policy = "ondemand";
    p.epochWindows = 2;
    return p;
}

sampling::ProfilerOptions
profilerOptions()
{
    sampling::ProfilerOptions p;
    p.intervalInsns = 10'000;
    p.captureImages = false; // keep the section to the profiler's own state
    return p;
}

/** A System set up as the image's writer was: the governor or the
 *  profiler attached before any restore, as the API requires. */
struct Target
{
    explicit Target(bool governed) : sys(fuzzOptions())
    {
        if (governed) {
            gov = governor::makeGovernor(governorParams());
            sys.attachGovernor(gov.get());
        } else {
            prof = std::make_unique<sampling::IntervalProfiler>(
                sys, profilerOptions());
        }
    }

    sim::System sys;
    std::unique_ptr<governor::Governor> gov;
    std::unique_ptr<sampling::IntervalProfiler> prof;
};

std::vector<std::uint8_t>
baseImage(bool governed)
{
    Target t(governed);
    const auto programs = workloads::loadMicrobench(
        t.sys, workloads::Microbench::Hist, kTiles, kThreadsPerCore, 0);
    const Cycle cycles =
        kWindowsBeforeSave * t.sys.options().cyclesPerSample;
    const sim::CompletionResult res =
        t.prof ? t.prof->run(cycles) : t.sys.runToCompletion(cycles);
    EXPECT_FALSE(res.completed);
    return t.sys.saveBytes();
}

void
fuzzImage(bool governed, std::uint64_t seed)
{
    const std::vector<std::uint8_t> base = baseImage(governed);
    const std::vector<Section> sections = sectionsOf(base);
    const std::string want = governed ? "sys.governor" : "sys.sampling";
    bool found = false;
    for (const Section &s : sections)
        found = found || s.name == want;
    ASSERT_TRUE(found) << "base image has no " << want << " section";

    std::size_t payload_bytes = 0;
    for (const Section &s : sections)
        payload_bytes += s.length;

    std::mt19937_64 rng(seed);
    const int iters = fuzzIters(400);
    std::size_t rejected = 0, accepted = 0, faulted = 0;
    for (int iter = 0; iter < iters; ++iter) {
        // Even iterations visit every section in turn; odd ones pick a
        // payload byte uniformly, so the big sections (cache arrays,
        // memory pages) get mutations in proportion to their size.
        std::size_t pick =
            static_cast<std::size_t>(iter / 2) % sections.size();
        if (iter % 2 == 1) {
            std::size_t byte = rng() % payload_bytes;
            for (pick = 0; byte >= sections[pick].length; ++pick)
                byte -= sections[pick].length;
        }
        const Section &sec = sections[pick];
        if (sec.length == 0)
            continue;
        auto img = base;
        const std::size_t width = std::min<std::size_t>(
            std::size_t{1} << (rng() % 4), sec.length); // 1..8 bytes
        const std::size_t off = rng() % (sec.length - width + 1);
        const std::size_t at = sec.payloadAt + off;
        std::uint64_t value = 0;
        switch (rng() % 4) {
          case 0: // one bit flipped
            value = getLe(img, at, width) ^ (1ULL << (rng() % (8 * width)));
            break;
          case 1: value = 0; break;
          case 2: value = ~std::uint64_t{0}; break;
          default: value = rng(); break;
        }
        putLe(img, at, width, value);
        putLe(img, sec.crcAt, 4,
              ckpt::crc32(&img[sec.payloadAt], sec.length));

        const std::string where = sec.name + " +" + std::to_string(off)
                                  + " (iteration " + std::to_string(iter)
                                  + ")";
        Target t(governed);
        bool ok = false;
        try {
            t.sys.restoreBytes(img);
            ok = true;
        } catch (const ckpt::CheckpointError &) {
            ++rejected;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "restore threw " << e.what() << ": " << where;
            continue;
        }
        if (ok) {
            ++accepted;
            try {
                t.sys.runToCompletion(t.sys.options().cyclesPerSample);
            } catch (const std::logic_error &) {
                ++faulted;
            }
        } else {
            t.sys.restoreBytes(base);
            EXPECT_EQ(t.sys.saveBytes(), base)
                << "restore after a rejected one re-saved differently: "
                << where;
        }
    }
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(faulted, accepted);
}

TEST(CheckpointImageFuzz, GovernedImageMutationsFailCleanly)
{
    fuzzImage(/*governed=*/true, 0xC4EC'0001);
}

TEST(CheckpointImageFuzz, ProfiledImageMutationsFailCleanly)
{
    fuzzImage(/*governed=*/false, 0xC4EC'0002);
}

} // namespace
