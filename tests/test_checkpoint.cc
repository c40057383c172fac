/**
 * @file
 * Checkpoint/restore suite (DESIGN.md §10).
 *
 * The contract under test: a run checkpointed at cycle N and resumed
 * in a fresh process-equivalent System produces *bit-identical*
 * results to the uninterrupted run — ledger sums and per-tile energies
 * compared as raw IEEE-754 bit patterns, telemetry CSV exports
 * compared byte for byte — under either fastPath setting, and even
 * across engines (save fast, resume legacy).  Malformed images
 * (truncation, corruption, bad magic, version or config mismatch) must
 * fail with ckpt::CheckpointError, never undefined behaviour.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "arch/cache.hh"
#include "arch/memory.hh"
#include "arch/piton_chip.hh"
#include "checkpoint/archive.hh"
#include "governor/governor.hh"
#include "chip/chip_instance.hh"
#include "config/piton_params.hh"
#include "isa/assembler.hh"
#include "power/energy_model.hh"
#include "sim/system.hh"
#include "sim/warm_start.hh"
#include "telemetry/export.hh"
#include "telemetry/recorder.hh"
#include "telemetry/schema.hh"
#include "workloads/microbenchmarks.hh"

namespace
{

using namespace piton;

std::uint64_t
bitsOf(double d)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

/** Everything observable about a System run, FP values as raw bits so
 *  EXPECT_EQ is exact — the checkpoint promise is bit-identity, not
 *  tolerance. */
struct SystemFingerprint
{
    std::vector<std::uint64_t> windowBits; ///< per-window rail powers
    std::vector<std::uint64_t> ledgerBits;
    std::vector<std::uint64_t> tileBits;
    std::uint64_t sampleClockBits = 0;
    std::uint64_t insts = 0;
    Cycle now = 0;
    std::string csv; ///< full telemetry export

    bool
    operator==(const SystemFingerprint &o) const
    {
        return windowBits == o.windowBits && ledgerBits == o.ledgerBits
               && tileBits == o.tileBits
               && sampleClockBits == o.sampleClockBits && insts == o.insts
               && now == o.now && csv == o.csv;
    }
};

void
recordWindows(sim::System &sys, std::uint32_t windows,
              SystemFingerprint &fp)
{
    for (std::uint32_t w = 0; w < windows; ++w) {
        const auto p =
            sys.windowTruePowers(sys.options().cyclesPerSample);
        for (const double v : p)
            fp.windowBits.push_back(bitsOf(v));
    }
}

void
finishFingerprint(sim::System &sys, const telemetry::TelemetryRecorder &rec,
                  SystemFingerprint &fp)
{
    const auto &ledger = sys.pitonChip().ledger();
    for (std::size_t c = 0; c < power::kNumCategories; ++c)
        for (std::size_t rail = 0; rail < power::kNumRails; ++rail)
            fp.ledgerBits.push_back(
                bitsOf(ledger.category(static_cast<power::Category>(c))
                           .get(static_cast<power::Rail>(rail))));
    for (std::size_t rail = 0; rail < power::kNumRails; ++rail)
        fp.ledgerBits.push_back(
            bitsOf(ledger.total().get(static_cast<power::Rail>(rail))));
    for (const double e : sys.pitonChip().tileCoreEnergyJ())
        fp.tileBits.push_back(bitsOf(e));
    fp.sampleClockBits = bitsOf(sys.sampleClockS());
    fp.insts = sys.pitonChip().totalInsts();
    fp.now = sys.pitonChip().now();
    std::ostringstream os;
    telemetry::writeCsv(os, rec);
    fp.csv = os.str();
}

sim::SystemOptions
optsFor(bool fast_path)
{
    sim::SystemOptions opts;
    opts.fastPath = fast_path;
    return opts;
}

constexpr std::uint32_t kPrefixWindows = 5;
constexpr std::uint32_t kSuffixWindows = 5;

/** The uninterrupted reference: attach, run prefix + suffix windows. */
SystemFingerprint
runStraight(workloads::Microbench m, bool fast_path)
{
    sim::System sys(optsFor(fast_path));
    const auto programs = workloads::loadMicrobench(sys, m, 25, 2, 0);
    telemetry::TelemetryRecorder rec;
    sys.attachTelemetry(&rec);
    SystemFingerprint fp;
    recordWindows(sys, kPrefixWindows + kSuffixWindows, fp);
    finishFingerprint(sys, rec, fp);
    return fp;
}

/** Same run, interrupted: checkpoint after the prefix, restore into a
 *  fresh System (no loadMicrobench — program images travel in the
 *  checkpoint), finish the suffix there. */
SystemFingerprint
runInterrupted(workloads::Microbench m, bool save_fast, bool resume_fast)
{
    SystemFingerprint fp;
    std::vector<std::uint8_t> bytes;
    {
        sim::System sys(optsFor(save_fast));
        const auto programs =
            workloads::loadMicrobench(sys, m, 25, 2, 0);
        telemetry::TelemetryRecorder rec;
        sys.attachTelemetry(&rec);
        recordWindows(sys, kPrefixWindows, fp);
        bytes = sys.saveBytes();
    }
    sim::System resumed(optsFor(resume_fast));
    telemetry::TelemetryRecorder rec;
    resumed.attachTelemetry(&rec); // attach first, then restore
    resumed.restoreBytes(bytes);
    recordWindows(resumed, kSuffixWindows, fp);
    finishFingerprint(resumed, rec, fp);
    return fp;
}

class CheckpointRoundTrip
    : public ::testing::TestWithParam<std::tuple<workloads::Microbench, bool>>
{
};

TEST_P(CheckpointRoundTrip, ResumeIsBitIdentical)
{
    const auto [bench, fast] = GetParam();
    const auto straight = runStraight(bench, fast);
    const auto resumed = runInterrupted(bench, fast, fast);
    EXPECT_EQ(resumed.windowBits, straight.windowBits);
    EXPECT_EQ(resumed.ledgerBits, straight.ledgerBits);
    EXPECT_EQ(resumed.tileBits, straight.tileBits);
    EXPECT_EQ(resumed.sampleClockBits, straight.sampleClockBits);
    EXPECT_EQ(resumed.insts, straight.insts);
    EXPECT_EQ(resumed.now, straight.now);
    EXPECT_EQ(resumed.csv, straight.csv);
    EXPECT_TRUE(resumed == straight);
}

std::string
roundTripName(
    const ::testing::TestParamInfo<std::tuple<workloads::Microbench, bool>>
        &info)
{
    return std::string(workloads::microbenchName(std::get<0>(info.param)))
           + (std::get<1>(info.param) ? "Fast" : "Legacy");
}

INSTANTIATE_TEST_SUITE_P(
    AllMicrobenches, CheckpointRoundTrip,
    ::testing::Combine(::testing::Values(workloads::Microbench::Int,
                                         workloads::Microbench::HP,
                                         workloads::Microbench::Hist),
                       ::testing::Bool()),
    roundTripName);

/** fastPath is deliberately not fingerprinted: a checkpoint saved
 *  under the fast engine resumes bit-identically on the legacy one
 *  (both engines are bit-equivalent, see test_fastpath_equiv). */
TEST(CheckpointCrossEngine, SaveFastResumeLegacy)
{
    const auto straight = runStraight(workloads::Microbench::HP, true);
    const auto crossed =
        runInterrupted(workloads::Microbench::HP, true, false);
    EXPECT_TRUE(crossed == straight);
}

TEST(CheckpointCrossEngine, SaveLegacyResumeFast)
{
    const auto straight = runStraight(workloads::Microbench::Int, false);
    const auto crossed =
        runInterrupted(workloads::Microbench::Int, false, true);
    EXPECT_TRUE(crossed == straight);
}

/** Checkpointing at several different points of the same run must each
 *  resume onto the same trajectory. */
TEST(CheckpointRoundTripCycles, MultipleCheckpointCycles)
{
    const auto straight = runStraight(workloads::Microbench::Int, true);
    for (const std::uint32_t at : {1u, 4u, 9u}) {
        SystemFingerprint fp;
        std::vector<std::uint8_t> bytes;
        {
            sim::System sys(optsFor(true));
            const auto programs = workloads::loadMicrobench(
                sys, workloads::Microbench::Int, 25, 2, 0);
            telemetry::TelemetryRecorder rec;
            sys.attachTelemetry(&rec);
            recordWindows(sys, at, fp);
            bytes = sys.saveBytes();
        }
        sim::System resumed(optsFor(true));
        telemetry::TelemetryRecorder rec;
        resumed.attachTelemetry(&rec);
        resumed.restoreBytes(bytes);
        recordWindows(resumed,
                      kPrefixWindows + kSuffixWindows - at, fp);
        finishFingerprint(resumed, rec, fp);
        EXPECT_TRUE(fp == straight) << "checkpoint at window " << at;
    }
}

// ---- PitonChip-level save/restore (file round trip) ------------------

struct ChipFingerprint
{
    Cycle now = 0;
    std::uint64_t insts = 0;
    std::vector<std::uint64_t> ledgerBits;
    std::vector<std::uint64_t> tileBits;

    bool
    operator==(const ChipFingerprint &o) const
    {
        return now == o.now && insts == o.insts
               && ledgerBits == o.ledgerBits && tileBits == o.tileBits;
    }
};

ChipFingerprint
chipFingerprint(const arch::PitonChip &chip)
{
    ChipFingerprint f;
    f.now = chip.now();
    f.insts = chip.totalInsts();
    const auto &ledger = chip.ledger();
    for (std::size_t c = 0; c < power::kNumCategories; ++c)
        for (std::size_t rail = 0; rail < power::kNumRails; ++rail)
            f.ledgerBits.push_back(
                bitsOf(ledger.category(static_cast<power::Category>(c))
                           .get(static_cast<power::Rail>(rail))));
    for (const double e : chip.tileCoreEnergyJ())
        f.tileBits.push_back(bitsOf(e));
    return f;
}

isa::Program
chipTestProgram()
{
    return isa::assemble(R"(
        set 0x20000, %r1
        set 0, %r3
    loop:
        stx %r3, [%r1 + 0]
        ldx [%r1 + 0], %r4
        add %r3, 1, %r3
        cmp %r3, 3000
        bl loop
        halt
    )");
}

TEST(CheckpointChipLevel, FileRoundTripResumesBitIdentical)
{
    const std::string path = ::testing::TempDir() + "piton_chip.ckpt";
    const isa::Program p = chipTestProgram();

    config::PitonParams params;
    power::EnergyModel energy;
    arch::PitonChip chip(params, chip::makeChip(2), energy, 17);
    for (TileId tile = 0; tile < 4; ++tile)
        chip.loadProgram(tile, 0, &p);
    chip.run(5000);
    chip.save(path);
    chip.run(1'000'000);
    const ChipFingerprint straight = chipFingerprint(chip);

    power::EnergyModel energy2;
    arch::PitonChip resumed(params, chip::makeChip(2), energy2, 17);
    resumed.restore(path); // no loadProgram: images travel along
    resumed.run(1'000'000);
    const ChipFingerprint after = chipFingerprint(resumed);
    EXPECT_TRUE(after == straight);
    std::remove(path.c_str());
}

TEST(CheckpointChipLevel, MissingFileThrows)
{
    config::PitonParams params;
    power::EnergyModel energy;
    arch::PitonChip chip(params, chip::makeChip(2), energy, 17);
    EXPECT_THROW(
        chip.restore(::testing::TempDir() + "no_such_checkpoint.ckpt"),
        ckpt::CheckpointError);
}

TEST(CheckpointChipLevel, UnwritablePathThrows)
{
    config::PitonParams params;
    power::EnergyModel energy;
    arch::PitonChip chip(params, chip::makeChip(2), energy, 17);
    EXPECT_THROW(chip.save("/nonexistent_dir_piton/x.ckpt"),
                 ckpt::CheckpointError);
}

// ---- malformed images fail loudly, never UB --------------------------

std::vector<std::uint8_t>
smallImage()
{
    sim::System sys(optsFor(true));
    const auto programs = workloads::loadMicrobench(
        sys, workloads::Microbench::Int, 2, 1, 0);
    sys.windowTruePowers(sys.options().cyclesPerSample);
    return sys.saveBytes();
}

TEST(CheckpointMalformed, TruncationThrows)
{
    const auto bytes = smallImage();
    // Every truncation point must produce a clean error.  Stepping a
    // prime keeps the test fast while hitting headers, names, and
    // payloads alike.
    for (std::size_t n = 0; n < bytes.size(); n += 409) {
        std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + n);
        sim::System sys(optsFor(true));
        EXPECT_THROW(sys.restoreBytes(cut), ckpt::CheckpointError)
            << "truncated to " << n << " bytes";
    }
}

TEST(CheckpointMalformed, BitFlipThrows)
{
    const auto bytes = smallImage();
    for (const std::size_t at :
         {std::size_t{20}, bytes.size() / 2, bytes.size() - 1}) {
        auto bad = bytes;
        bad[at] ^= 0x40;
        sim::System sys(optsFor(true));
        EXPECT_THROW(sys.restoreBytes(bad), ckpt::CheckpointError)
            << "bit flip at offset " << at;
    }
}

TEST(CheckpointMalformed, BadMagicThrows)
{
    auto bytes = smallImage();
    bytes[0] = 'X';
    sim::System sys(optsFor(true));
    try {
        sys.restoreBytes(bytes);
        FAIL() << "bad magic accepted";
    } catch (const ckpt::CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
    }
}

TEST(CheckpointMalformed, VersionMismatchThrows)
{
    auto bytes = smallImage();
    bytes[8] ^= 0xFF; // format version u32 follows the 8-byte magic
    sim::System sys(optsFor(true));
    try {
        sys.restoreBytes(bytes);
        FAIL() << "version mismatch accepted";
    } catch (const ckpt::CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos);
    }
}

TEST(CheckpointMalformed, TrailingGarbageThrows)
{
    auto bytes = smallImage();
    bytes.push_back(0xAB);
    sim::System sys(optsFor(true));
    EXPECT_THROW(sys.restoreBytes(bytes), ckpt::CheckpointError);
}

TEST(CheckpointMalformed, EmptyImageThrows)
{
    sim::System sys(optsFor(true));
    EXPECT_THROW(sys.restoreBytes({}), ckpt::CheckpointError);
}

TEST(CheckpointMalformed, ConfigMismatchThrows)
{
    const auto bytes = smallImage();
    sim::SystemOptions other = optsFor(true);
    other.vddV = 0.90; // fingerprinted operating point
    sim::System sys(other);
    EXPECT_THROW(sys.restoreBytes(bytes), ckpt::CheckpointError);
}

TEST(CheckpointMalformed, RecorderRicherThanImageThrows)
{
    std::vector<std::uint8_t> bytes;
    {
        sim::System sys(optsFor(true));
        telemetry::TelemetryRecorder rec;
        sys.attachTelemetry(&rec);
        bytes = sys.saveBytes();
    }
    sim::System sys(optsFor(true));
    telemetry::TelemetryRecorder rec;
    sys.attachTelemetry(&rec);
    rec.defineSeries("custom.extra", telemetry::Unit::Count,
                     telemetry::Downsample::Sum);
    EXPECT_THROW(sys.restoreBytes(bytes), ckpt::CheckpointError);
}

// ---- sparse chip.mem / chip.memory encodings (format v6) -------------

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

/** Where one section's CRC and payload sit inside an image. */
struct SectionSpan
{
    std::size_t crcAt = 0;
    std::size_t payloadAt = 0;
    std::size_t length = 0;
};

/** Walk the section directory (magic, version, count; then per section
 *  name length, name, payload length, CRC, payload). */
SectionSpan
findSection(const std::vector<std::uint8_t> &img, const std::string &name)
{
    std::size_t pos = sizeof(ckpt::kMagic) + 4;
    const std::uint64_t count = getLe(img, pos, 4);
    pos += 4;
    for (std::uint64_t s = 0; s < count; ++s) {
        const std::size_t name_len = getLe(img, pos, 4);
        pos += 4;
        const std::string got(img.begin() + pos,
                              img.begin() + pos + name_len);
        pos += name_len;
        const std::size_t len = getLe(img, pos, 8);
        pos += 8;
        const SectionSpan span{pos, pos + 4, len};
        pos += 4 + len;
        if (got == name)
            return span;
    }
    throw std::runtime_error("section not found: " + name);
}

/** Recompute a section's CRC so a payload edit reaches the decoder. */
void
fixCrc(std::vector<std::uint8_t> &img, const SectionSpan &span)
{
    putLe(img, span.crcAt, 4,
          ckpt::crc32(&img[span.payloadAt], span.length));
}

/** Restore must fail with a CheckpointError naming `what`. */
void
expectRejected(const std::vector<std::uint8_t> &img, const char *what)
{
    sim::System sys(optsFor(true));
    try {
        sys.restoreBytes(img);
        ADD_FAILURE() << "accepted an image that should fail: " << what;
    } catch (const ckpt::CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
    }
}

// chip.mem starts with the u32 tile count, then tile 0's L1I array
// (default geometry: 16 KB of 32 B lines): u32 sets, u32 ways, u32 line
// bytes, u64 entry count, then entries of u32 index, u64 tag, u64
// state, u64 lastUse.
constexpr std::size_t kL1iCountAt = 4 + 12;
constexpr std::size_t kL1iEntriesAt = kL1iCountAt + 8;
constexpr std::size_t kCacheEntryBytes = 4 + 8 + 8 + 8;
constexpr std::uint64_t kL1iLines = 16 * 1024 / 32;

// chip.memory: u64 page count, then per page u64 key, u64 word count,
// and entries of u16 word index, u64 value.
constexpr std::size_t kPage0CountAt = 8 + 8;
constexpr std::size_t kPage0EntriesAt = kPage0CountAt + 8;
constexpr std::size_t kWordEntryBytes = 2 + 8;
constexpr std::uint64_t kPageWords = arch::MainMemory::kPageBytes / 8;

/** The finished 25-tile x 2 T/C phased chip (built once: it is the
 *  slowest fixture here). */
const std::vector<std::uint8_t> &
phasedChipImage()
{
    static const std::vector<std::uint8_t> image = [] {
        sim::System sys(optsFor(true));
        const auto programs = workloads::loadMicrobench(
            sys, workloads::Microbench::Phased, 25, 2, 2);
        const sim::CompletionResult res =
            sys.runToCompletion(400'000'000ULL);
        EXPECT_TRUE(res.completed);
        return sys.saveBytes();
    }();
    return image;
}

/** A small image whose two lowest pages have every word non-zero, so
 *  chip.memory page 0 holds a full 512-entry list with room behind it. */
std::vector<std::uint8_t>
denseMemoryImage()
{
    sim::System sys(optsFor(true));
    const auto programs = workloads::loadMicrobench(
        sys, workloads::Microbench::Int, 2, 1, 0);
    sys.windowTruePowers(sys.options().cyclesPerSample);
    arch::MainMemory &mem = sys.pitonChip().memory();
    for (Addr a = 0; a < 2 * arch::MainMemory::kPageBytes; a += 8)
        mem.write64(a, a + 1);
    return sys.saveBytes();
}

std::vector<std::uint8_t>
cacheImage(arch::CacheArray &cache)
{
    auto ar = ckpt::Archive::forSave();
    ar.beginSection("cache");
    cache.serialize(ar);
    ar.endSection();
    return ar.finish();
}

/** invalidate() keeps tag and lastUse; the sparse encoding lists such
 *  a line (it differs from CacheLine{}) and restores it exactly, over
 *  whatever the target array held before. */
TEST(CheckpointSparse, InvalidatedLineKeepsTagAndLastUse)
{
    const config::PitonParams params;
    arch::CacheArray cache(params.l1d);
    cache.fill(0x1238, arch::Mesi::Shared, 77);
    ASSERT_EQ(cache.invalidate(0x1238), arch::Mesi::Shared);
    const auto img = cacheImage(cache);

    const SectionSpan span = findSection(img, "cache");
    const std::size_t at = span.payloadAt + 12;
    ASSERT_EQ(span.length, 12u + 8u + kCacheEntryBytes);
    EXPECT_EQ(getLe(img, at, 8), 1u);           // one listed line
    EXPECT_EQ(getLe(img, at + 8, 4), cache.setOf(0x1238) * 4u); // way 0
    EXPECT_EQ(getLe(img, at + 12, 8), 0x1230u); // tag kept
    EXPECT_EQ(getLe(img, at + 20, 8), 0u);      // Invalid
    EXPECT_EQ(getLe(img, at + 28, 8), 77u);     // lastUse kept

    arch::CacheArray restored(params.l1d);
    restored.fill(0x4560, arch::Mesi::Modified, 5); // must be cleared
    auto ar = ckpt::Archive::forLoad(img);
    ar.beginSection("cache");
    restored.serialize(ar);
    ar.endSection();
    EXPECT_EQ(restored.validCount(), 0u);
    EXPECT_EQ(cacheImage(restored), img);
}

// ---- window-bounded cache scans -----------------------------------------

/** Zero-filled pages hold default lines: each field of CacheLine{} is
 *  zero bytes, and zero bytes read back as CacheLine{}. */
TEST(CacheWindow, DefaultLineIsAllZeroBytes)
{
    const arch::CacheLine def{};
    const unsigned char zeros[sizeof(arch::CacheLine)] = {};
    EXPECT_EQ(std::memcmp(&def.tag, zeros, sizeof def.tag), 0);
    EXPECT_EQ(std::memcmp(&def.state, zeros, sizeof def.state), 0);
    EXPECT_EQ(std::memcmp(&def.lastUse, zeros, sizeof def.lastUse), 0);
    arch::CacheLine from_zeros;
    std::memcpy(&from_zeros, zeros, sizeof from_zeros);
    EXPECT_EQ(from_zeros, def);

    const config::PitonParams params;
    const arch::CacheArray fresh(params.l2Slice);
    for (const arch::CacheLine &cl : fresh.lines())
        ASSERT_EQ(cl, def);
    EXPECT_EQ(fresh.window(), (std::pair<std::size_t, std::size_t>{0, 0}));
}

/** The image a scan over every line would write: geometry, then a
 *  full-range ioSparse over a copy of the lines. */
std::vector<std::uint8_t>
fullScanImage(const arch::CacheArray &cache)
{
    std::vector<arch::CacheLine> lines(cache.lines().begin(),
                                       cache.lines().end());
    auto ar = ckpt::Archive::forSave();
    ar.beginSection("cache");
    ar.ioExpect(cache.numSets(), "cache sets");
    ar.ioExpect(cache.ways(), "cache ways");
    ar.ioExpect(cache.lineBytes(), "cache line bytes");
    ar.ioSparse<std::uint32_t>(
        lines.data(), lines.size(), 8 + 8 + 8,
        [&](arch::CacheLine &cl) {
            ar.io(cl.tag);
            ar.ioEnum(cl.state, static_cast<arch::Mesi>(4));
            ar.io(cl.lastUse);
        },
        "cache line");
    ar.endSection();
    return ar.finish();
}

void
restoreCache(arch::CacheArray &cache, const std::vector<std::uint8_t> &img)
{
    auto ar = ckpt::Archive::forLoad(img);
    ar.beginSection("cache");
    cache.serialize(ar);
    ar.endSection();
}

/** Every line outside the window is CacheLine{}, and the window-bounded
 *  image equals the full scan's. */
void
expectWindowHolds(arch::CacheArray &cache, const std::string &where)
{
    const auto [lo, hi] = cache.window();
    ASSERT_LE(lo, hi) << where;
    ASSERT_LE(hi, cache.lines().size()) << where;
    for (std::size_t i = 0; i < cache.lines().size(); ++i) {
        if (i < lo || i >= hi) {
            ASSERT_EQ(cache.lines()[i], arch::CacheLine{})
                << where << ": line " << i << " outside [" << lo << ", "
                << hi << ")";
        }
    }
    EXPECT_EQ(cacheImage(cache), fullScanImage(cache)) << where;
}

/** Seeded random fill / access / setState / invalidate / flushAll /
 *  save-restore sequences on a small and a default geometry keep the
 *  window invariant after every step, and a restore into a used array
 *  and into a fresh one give byte-identical images. */
TEST(CacheWindow, RandomSequencesKeepTheWindow)
{
    const config::PitonParams params;
    for (const config::CacheParams &geom :
         {config::CacheParams{1024, 2, 16}, params.l1d}) {
        std::mt19937_64 rng(0x5EED'0A77 + geom.sizeBytes);
        arch::CacheArray a(geom), used(geom);
        // Addresses span a few times the array, so sets fill and evict.
        const Addr span = 4 * static_cast<Addr>(geom.sizeBytes);
        auto addr = [&] { return rng() % span; };
        auto state = [&] {
            return static_cast<arch::Mesi>(1 + rng() % 3); // S, E or M
        };
        Cycle now = 1;
        for (int step = 0; step < 3000; ++step, ++now) {
            const std::string where =
                "geometry " + std::to_string(geom.sizeBytes) + " step "
                + std::to_string(step);
            switch (rng() % 16) {
              case 0: case 1: case 2: case 3: case 4:
                a.fill(addr(), state(), now);
                break;
              case 5: case 6: case 7:
                a.access(addr(), now);
                break;
              case 8: case 9:
                a.setState(addr(), state());
                break;
              case 10: case 11: case 12:
                a.invalidate(addr());
                break;
              case 13:
                if (rng() % 8 == 0)
                    a.flushAll();
                break;
              default: {
                const auto img = cacheImage(a);
                arch::CacheArray fresh(geom);
                restoreCache(fresh, img);
                restoreCache(used, img);
                ASSERT_EQ(cacheImage(fresh), img) << where;
                ASSERT_EQ(cacheImage(used), img) << where;
                expectWindowHolds(fresh, where + " (fresh)");
                expectWindowHolds(used, where + " (used)");
                // Go on with the restored array; the old one becomes
                // the next restore target.
                std::swap(a, used);
                break;
              }
            }
            expectWindowHolds(a, where);
            if (testing::Test::HasFatalFailure())
                return;
        }
    }
}

/** A load that throws part-way may have written lines anywhere; the
 *  next good restore must still reset them. */
TEST(CacheWindow, RejectedLoadLeavesArrayRestorable)
{
    const config::PitonParams params;
    arch::CacheArray src(params.l1d);
    src.fill(0x1230, arch::Mesi::Shared, 3);
    const auto good = cacheImage(src);

    arch::CacheArray other(params.l1d);
    other.fill(0x4560, arch::Mesi::Modified, 5);
    other.fill(0x7890, arch::Mesi::Modified, 6);
    auto bad = cacheImage(other);
    // Second entry's index past the array: the first is written, then
    // the load throws.
    const SectionSpan span = findSection(bad, "cache");
    const std::size_t count_at = span.payloadAt + 12;
    ASSERT_EQ(getLe(bad, count_at, 8), 2u);
    putLe(bad, count_at + 8 + kCacheEntryBytes, 4, 0xFFFF'FFFFu);
    fixCrc(bad, span);

    arch::CacheArray target(params.l1d);
    EXPECT_THROW(restoreCache(target, bad), ckpt::CheckpointError);
    expectWindowHolds(target, "after the rejected load");
    restoreCache(target, good);
    EXPECT_EQ(cacheImage(target), good);
    expectWindowHolds(target, "after the good restore");
}

/** The same at system level: a coherence invalidation leaves tile 0's
 *  L1D copy invalid with its tag and LRU stamp, and the restored
 *  system re-saves to the original bytes. */
TEST(CheckpointSparse, CoherenceInvalidatedL1dLineRoundTrips)
{
    sim::System sys(optsFor(true));
    arch::MemorySystem &ms = sys.pitonChip().memSystem();
    constexpr Addr kAddr = 0x40000;
    RegVal data = 0;
    ms.load(0, kAddr, data, 100);
    ASSERT_NE(ms.probeL1d(0, kAddr), arch::Mesi::Invalid);
    ms.store(1, kAddr, 7, 200);
    ASSERT_EQ(ms.probeL1d(0, kAddr), arch::Mesi::Invalid);
    const auto img = sys.saveBytes();

    sim::System resumed(optsFor(true));
    resumed.restoreBytes(img);
    EXPECT_EQ(resumed.pitonChip().memSystem().probeL1d(0, kAddr),
              arch::Mesi::Invalid);
    EXPECT_EQ(resumed.saveBytes(), img);
}

/** A page written and then zeroed has no listed words but keeps its
 *  key: pageCount() survives the restore. */
TEST(CheckpointSparse, ZeroedPageStaysAllocated)
{
    sim::System sys(optsFor(true));
    arch::MainMemory &mem = sys.pitonChip().memory();
    constexpr Addr kAddr = 0x7'0000'0000ULL;
    mem.write64(kAddr, 42);
    mem.write64(kAddr, 0);
    const std::size_t pages = mem.pageCount();
    const auto img = sys.saveBytes();

    sim::System resumed(optsFor(true));
    resumed.restoreBytes(img);
    EXPECT_EQ(resumed.pitonChip().memory().pageCount(), pages);
    EXPECT_EQ(resumed.pitonChip().memory().read64(kAddr), 0u);
    EXPECT_EQ(resumed.saveBytes(), img);
}

TEST(CheckpointSparse, PhasedChipReSavesIdentically)
{
    const auto &img = phasedChipImage();
    sim::System resumed(optsFor(true));
    resumed.restoreBytes(img);
    EXPECT_EQ(resumed.saveBytes(), img);
}

/** Size guard: the finished phased chip was 1.7 MiB with every cache
 *  line and page word written out, and is about 58 KiB sparse. */
TEST(CheckpointSparse, PhasedChipImageIsSmall)
{
    EXPECT_LT(phasedChipImage().size(), 128u * 1024u);
}

TEST(CheckpointSparseMalformed, CacheIndexOutOfOrderThrows)
{
    auto img = smallImage();
    const SectionSpan span = findSection(img, "chip.mem");
    ASSERT_GE(getLe(img, span.payloadAt + kL1iCountAt, 8), 2u);
    const std::size_t e0 = span.payloadAt + kL1iEntriesAt;
    const std::size_t e1 = e0 + kCacheEntryBytes;
    const std::uint64_t i0 = getLe(img, e0, 4);
    const std::uint64_t i1 = getLe(img, e1, 4);
    putLe(img, e0, 4, i1);
    putLe(img, e1, 4, i0);
    fixCrc(img, span);
    expectRejected(img, "cache line indices not ascending");
}

TEST(CheckpointSparseMalformed, CacheIndexRepeatedThrows)
{
    auto img = smallImage();
    const SectionSpan span = findSection(img, "chip.mem");
    ASSERT_GE(getLe(img, span.payloadAt + kL1iCountAt, 8), 2u);
    const std::size_t e0 = span.payloadAt + kL1iEntriesAt;
    putLe(img, e0 + kCacheEntryBytes, 4, getLe(img, e0, 4));
    fixCrc(img, span);
    expectRejected(img, "cache line indices not ascending");
}

TEST(CheckpointSparseMalformed, CacheIndexOutOfRangeThrows)
{
    auto img = smallImage();
    const SectionSpan span = findSection(img, "chip.mem");
    ASSERT_GE(getLe(img, span.payloadAt + kL1iCountAt, 8), 1u);
    putLe(img, span.payloadAt + kL1iEntriesAt, 4, kL1iLines); // sets*ways
    fixCrc(img, span);
    expectRejected(img, "cache line index out of range");
}

TEST(CheckpointSparseMalformed, CacheCountAboveCapacityThrows)
{
    // The phased chip's chip.mem has room for kL1iLines + 1 entries
    // behind the count, so the capacity check (not the section-size
    // guard) is what rejects it.
    auto img = phasedChipImage();
    const SectionSpan span = findSection(img, "chip.mem");
    ASSERT_GT(span.length, kL1iEntriesAt + (kL1iLines + 1) * kCacheEntryBytes);
    putLe(img, span.payloadAt + kL1iCountAt, 8, kL1iLines + 1);
    fixCrc(img, span);
    expectRejected(img, "cache line count exceeds capacity");
}

TEST(CheckpointSparseMalformed, PageWordIndexOutOfOrderThrows)
{
    auto img = denseMemoryImage();
    const SectionSpan span = findSection(img, "chip.memory");
    ASSERT_EQ(getLe(img, span.payloadAt + kPage0CountAt, 8), kPageWords);
    const std::size_t e0 = span.payloadAt + kPage0EntriesAt;
    const std::size_t e1 = e0 + kWordEntryBytes;
    putLe(img, e0, 2, 1);
    putLe(img, e1, 2, 0);
    fixCrc(img, span);
    expectRejected(img, "page word indices not ascending");
}

TEST(CheckpointSparseMalformed, PageWordIndexOutOfRangeThrows)
{
    auto img = denseMemoryImage();
    const SectionSpan span = findSection(img, "chip.memory");
    ASSERT_EQ(getLe(img, span.payloadAt + kPage0CountAt, 8), kPageWords);
    const std::size_t last =
        span.payloadAt + kPage0EntriesAt + (kPageWords - 1) * kWordEntryBytes;
    putLe(img, last, 2, kPageWords);
    fixCrc(img, span);
    expectRejected(img, "page word index out of range");
}

TEST(CheckpointSparseMalformed, PageWordCountAbovePageSizeThrows)
{
    auto img = denseMemoryImage();
    const SectionSpan span = findSection(img, "chip.memory");
    ASSERT_GT(span.length,
              kPage0EntriesAt + (kPageWords + 1) * kWordEntryBytes);
    putLe(img, span.payloadAt + kPage0CountAt, 8, kPageWords + 1);
    fixCrc(img, span);
    expectRejected(img, "page word count exceeds capacity");
}

/** Seeded mutations of real chip.mem and chip.memory payloads, CRC
 *  fixed up each time: restore either succeeds or throws
 *  CheckpointError, never anything worse.  chip.memory is fully
 *  canonical, so an accepted mutation of it must also re-save to the
 *  mutated bytes. */
TEST(CheckpointSparseMalformed, SeededPayloadMutationsFailCleanly)
{
    const auto base = denseMemoryImage();
    std::mt19937_64 rng(0x5EED'C6);
    std::size_t rejected = 0, accepted = 0;
    for (int iter = 0; iter < 160; ++iter) {
        const bool memory = iter % 2 == 1;
        auto img = base;
        const SectionSpan span =
            findSection(img, memory ? "chip.memory" : "chip.mem");
        const std::size_t width = std::size_t{1} << (rng() % 4); // 1..8
        const std::size_t off = rng() % (span.length - width + 1);
        std::uint64_t value = 0;
        switch (rng() % 4) {
          case 0: value = getLe(img, span.payloadAt + off, width) ^ 1; break;
          case 1: value = 0; break;
          case 2: value = ~std::uint64_t{0}; break;
          default: value = rng(); break;
        }
        putLe(img, span.payloadAt + off, width, value);
        fixCrc(img, span);
        sim::System sys(optsFor(true));
        try {
            sys.restoreBytes(img);
            ++accepted;
            if (memory) {
                EXPECT_EQ(sys.saveBytes(), img)
                    << "accepted chip.memory mutation re-saved differently"
                    << " (iteration " << iter << ")";
            }
        } catch (const ckpt::CheckpointError &) {
            ++rejected;
        }
    }
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(accepted, 0u);
}

// ---- run-ahead state: round trip, corruption, reset ------------------

/** A checkpoint must restore into a *used* chip whose run-ahead
 *  accounting (per-tile SoA ledgers, capture logs, round counter) is
 *  stale from a different workload, and resume bit-identically to the
 *  uninterrupted run. */
TEST(CheckpointRunAhead, SaveRestoresIntoUsedChip)
{
    const auto straight = runStraight(workloads::Microbench::Int, true);
    SystemFingerprint fp;
    std::vector<std::uint8_t> bytes;
    {
        sim::System sys(optsFor(true));
        const auto programs = workloads::loadMicrobench(
            sys, workloads::Microbench::Int, 25, 2, 0);
        telemetry::TelemetryRecorder rec;
        sys.attachTelemetry(&rec);
        recordWindows(sys, kPrefixWindows, fp);
        bytes = sys.saveBytes();
    }
    sim::System resumed(optsFor(true));
    const auto decoy = workloads::loadMicrobench(
        resumed, workloads::Microbench::Hist, 25, 2, 0);
    resumed.pitonChip().run(10000); // dirty the run-ahead state
    EXPECT_GT(resumed.pitonChip().runAheadRounds(), 0u);
    telemetry::TelemetryRecorder rec;
    resumed.attachTelemetry(&rec);
    resumed.restoreBytes(bytes);
    EXPECT_EQ(resumed.pitonChip().runAheadRounds(), 0u);
    recordWindows(resumed, kSuffixWindows, fp);
    finishFingerprint(resumed, rec, fp);
    EXPECT_TRUE(fp == straight);
}

/** The chip.tile_energy section (format v2) is CRC-protected like any
 *  other: a flipped bit inside it must throw, never silently skew the
 *  per-tile accumulators. */
TEST(CheckpointRunAhead, TileEnergySectionCorruptionThrows)
{
    auto bytes = smallImage();
    static const char kName[] = "chip.tile_energy";
    const auto it = std::search(bytes.begin(), bytes.end(), kName,
                                kName + sizeof(kName) - 1);
    ASSERT_NE(it, bytes.end()) << "chip.tile_energy section missing";
    const std::size_t at =
        static_cast<std::size_t>(it - bytes.begin()) + sizeof(kName) + 16;
    ASSERT_LT(at, bytes.size());
    bytes[at] ^= 0x01;
    sim::System sys(optsFor(true));
    EXPECT_THROW(sys.restoreBytes(bytes), ckpt::CheckpointError);
}

/** resetEnergy() must clear every piece of run-ahead accounting: the
 *  global ledger, the per-tile SoA ledger, and the round counter. */
TEST(CheckpointRunAhead, ResetEnergyClearsRoundState)
{
    const isa::Program p = chipTestProgram();
    config::PitonParams params;
    power::EnergyModel energy;
    arch::PitonChip chip(params, chip::makeChip(2), energy, 17);
    for (TileId tile = 0; tile < 4; ++tile)
        chip.loadProgram(tile, 0, &p);
    chip.run(20000);
    EXPECT_GT(chip.runAheadRounds(), 0u);
    double accrued = 0.0;
    for (const double e : chip.tileCoreEnergyJ())
        accrued += e;
    EXPECT_GT(accrued, 0.0);

    chip.resetEnergy();
    EXPECT_EQ(chip.runAheadRounds(), 0u);
    for (const double e : chip.tileCoreEnergyJ())
        EXPECT_EQ(bitsOf(e), bitsOf(0.0));
    const auto &ledger = chip.ledger();
    for (std::size_t rail = 0; rail < power::kNumRails; ++rail)
        EXPECT_EQ(
            ledger.total().get(static_cast<power::Rail>(rail)), 0.0);
}

// ---- burst issue with stores in flight -------------------------------

/**
 * A partly loaded 4-core x 1 T/C HP chip runs its ALU stretches in the
 * burst loop with stores still in flight, and the burst drains the
 * store buffer once on exit instead of on every tick.  A checkpoint at
 * a window boundary with stores in flight must resume bit-identically
 * and re-save byte for byte.  A traced run (which steps in order,
 * ticking every core at each stepped cycle and draining every time)
 * must save the same image, so the deferred drain leaves the
 * store-buffer state a per-tick drain would.
 */
TEST(CheckpointBurst, StoresInFlightResumeBitIdentically)
{
    constexpr std::uint32_t kCores = 4;
    constexpr std::uint32_t kTotalWindows = 12;
    const auto load = [](sim::System &sys) {
        return workloads::loadMicrobench(sys, workloads::Microbench::HP,
                                         kCores, 1, 0);
    };
    const auto storesInFlight = [](sim::System &sys) {
        const auto &chip = sys.pitonChip();
        std::size_t depth = 0;
        for (TileId t = 0; t < kCores; ++t)
            depth += chip.core(t).storeBufferDepth(chip.now());
        return depth;
    };

    // The first window boundary with a store in flight (a pure
    // function of the workload, so every run below stops there).
    std::uint32_t at = 0;
    {
        sim::System sys(optsFor(true));
        const auto programs = load(sys);
        SystemFingerprint scratch;
        while (at < kTotalWindows - 1 && storesInFlight(sys) == 0) {
            recordWindows(sys, 1, scratch);
            ++at;
        }
        ASSERT_GT(storesInFlight(sys), 0u)
            << "no window boundary with a store in flight";
        ASSERT_GT(at, 0u);
    }

    std::vector<std::uint8_t> traced;
    {
        sim::System sys(optsFor(true));
        const auto programs = load(sys);
        telemetry::TelemetryRecorder rec;
        sys.attachTelemetry(&rec);
        sys.pitonChip().setTraceHook(
            [](TileId, ThreadId, Cycle, Addr, const isa::Instruction &) {});
        SystemFingerprint scratch;
        recordWindows(sys, at, scratch);
        sys.pitonChip().setTraceHook({});
        traced = sys.saveBytes();
    }

    SystemFingerprint straight;
    {
        sim::System sys(optsFor(true));
        const auto programs = load(sys);
        telemetry::TelemetryRecorder rec;
        sys.attachTelemetry(&rec);
        recordWindows(sys, kTotalWindows, straight);
        finishFingerprint(sys, rec, straight);
    }

    SystemFingerprint fp;
    std::vector<std::uint8_t> bytes;
    {
        sim::System sys(optsFor(true));
        const auto programs = load(sys);
        telemetry::TelemetryRecorder rec;
        sys.attachTelemetry(&rec);
        recordWindows(sys, at, fp);
        EXPECT_GT(storesInFlight(sys), 0u);
        bytes = sys.saveBytes();
    }
    EXPECT_EQ(bytes, traced);

    sim::System resumed(optsFor(true));
    telemetry::TelemetryRecorder rec;
    resumed.attachTelemetry(&rec);
    resumed.restoreBytes(bytes);
    EXPECT_EQ(resumed.saveBytes(), bytes);
    recordWindows(resumed, kTotalWindows - at, fp);
    finishFingerprint(resumed, rec, fp);
    EXPECT_TRUE(fp == straight);
}

/**
 * The same architectural state saves to the same bytes under either
 * engine.  In-order stepping ticks every core at every stepped cycle,
 * pruning completed store-buffer entries as it goes; the fast path
 * only visits cores with work, so its buffers can still hold completed
 * entries when the run stops.  Save drains every buffer at now(), so
 * the images agree.  Each point below left completed entries in a
 * fast-path buffer before that drain existed.
 */
TEST(CheckpointEngines, FastAndLegacyImagesAreByteIdentical)
{
    struct Point
    {
        workloads::Microbench bench;
        std::uint32_t cores;
        Cycle cycles;
    };
    const Point points[] = {
        {workloads::Microbench::Hist, 9, 777},
        {workloads::Microbench::Hist, 9, 5003},
        {workloads::Microbench::Hist, 9, 40009},
        {workloads::Microbench::HP, 3, 777},
    };
    for (const Point &pt : points) {
        SCOPED_TRACE(std::string(workloads::microbenchName(pt.bench)) + " "
                     + std::to_string(pt.cores) + "x1 at "
                     + std::to_string(pt.cycles) + " cycles");
        const auto image = [&](bool fast_path) {
            sim::System sys(optsFor(fast_path));
            const auto programs =
                workloads::loadMicrobench(sys, pt.bench, pt.cores, 1, 0);
            sys.pitonChip().run(pt.cycles);
            return sys.pitonChip().saveBytes();
        };
        EXPECT_EQ(image(true), image(false));
    }
}

// ---- governed checkpoints (format v3: sys.governor section) ----------

governor::GovernorParams
govParamsFor(const std::string &policy)
{
    governor::GovernorParams p;
    p.policy = policy;
    p.epochWindows = 2;
    if (policy == "pidcap")
        p.capW = 2.0;
    return p;
}

/** Governed reference run: governor attached for the whole span. */
SystemFingerprint
governedStraight(const std::string &policy, std::uint32_t windows)
{
    sim::System sys(optsFor(true));
    const auto gov = governor::makeGovernor(govParamsFor(policy));
    sys.attachGovernor(gov.get());
    const auto programs =
        workloads::loadMicrobench(sys, workloads::Microbench::HP, 25, 2, 0);
    telemetry::TelemetryRecorder rec;
    sys.attachTelemetry(&rec);
    SystemFingerprint fp;
    recordWindows(sys, windows, fp);
    finishFingerprint(sys, rec, fp);
    return fp;
}

std::vector<std::uint8_t>
governedImage(const std::string &policy, std::uint32_t save_at,
              SystemFingerprint &fp)
{
    sim::System sys(optsFor(true));
    const auto gov = governor::makeGovernor(govParamsFor(policy));
    sys.attachGovernor(gov.get());
    const auto programs =
        workloads::loadMicrobench(sys, workloads::Microbench::HP, 25, 2, 0);
    telemetry::TelemetryRecorder rec;
    sys.attachTelemetry(&rec);
    recordWindows(sys, save_at, fp);
    return sys.saveBytes();
}

/** A governed run checkpointed at a control-epoch boundary (and, with
 *  an odd save point, mid-epoch — the accumulators travel too) must
 *  resume bit-identically: same window powers, ledger sums, and
 *  byte-identical telemetry including the governor.* epoch series. */
TEST(CheckpointGoverned, GovernedResumeIsBitIdentical)
{
    for (const char *policy : {"ondemand", "pidcap", "theas"}) {
        const auto straight = governedStraight(
            policy, kPrefixWindows + kSuffixWindows);
        // epochWindows=2: saving after 4 windows is an epoch boundary,
        // after 5 is mid-epoch with live accumulators.
        for (const std::uint32_t at : {4u, 5u}) {
            SystemFingerprint fp;
            const auto bytes = governedImage(policy, at, fp);
            sim::System resumed(optsFor(true));
            const auto gov =
                governor::makeGovernor(govParamsFor(policy));
            resumed.attachGovernor(gov.get()); // before restore
            telemetry::TelemetryRecorder rec;
            resumed.attachTelemetry(&rec);
            resumed.restoreBytes(bytes);
            recordWindows(resumed,
                          kPrefixWindows + kSuffixWindows - at, fp);
            finishFingerprint(resumed, rec, fp);
            EXPECT_TRUE(fp == straight)
                << policy << " saved at window " << at;
        }
    }
}

/** The governor policy is fingerprinted inside sys.governor: resuming
 *  under a different policy must fail loudly, not misinterpret the
 *  controller state. */
TEST(CheckpointGoverned, PolicyMismatchThrows)
{
    SystemFingerprint fp;
    const auto bytes = governedImage("ondemand", kPrefixWindows, fp);
    sim::System resumed(optsFor(true));
    const auto gov = governor::makeGovernor(govParamsFor("theas"));
    resumed.attachGovernor(gov.get());
    try {
        resumed.restoreBytes(bytes);
        FAIL() << "policy mismatch accepted";
    } catch (const ckpt::CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find("governor"),
                  std::string::npos);
    }
}

/** sys.governor is CRC-protected like every section: a flipped bit in
 *  its payload must throw, never skew the duty tables or PID state. */
TEST(CheckpointGoverned, GovernorSectionCorruptionThrows)
{
    SystemFingerprint fp;
    auto bytes = governedImage("pidcap", kPrefixWindows, fp);
    static const char kName[] = "sys.governor";
    const auto it = std::search(bytes.begin(), bytes.end(), kName,
                                kName + sizeof(kName) - 1);
    ASSERT_NE(it, bytes.end()) << "sys.governor section missing";
    const std::size_t at =
        static_cast<std::size_t>(it - bytes.begin()) + sizeof(kName) + 16;
    ASSERT_LT(at, bytes.size());
    bytes[at] ^= 0x01;
    sim::System resumed(optsFor(true));
    const auto gov = governor::makeGovernor(govParamsFor("pidcap"));
    resumed.attachGovernor(gov.get());
    EXPECT_THROW(resumed.restoreBytes(bytes), ckpt::CheckpointError);
}

/** Sections are located by name, so a pre-governor (ungoverned) image
 *  restores into a governed System: the control loop simply starts
 *  fresh, re-baselined against the restored chip counters. */
TEST(CheckpointGoverned, UngovernedImageRestoresIntoGovernedSystem)
{
    const auto bytes = smallImage();
    sim::System sys(optsFor(true));
    const auto gov = governor::makeGovernor(govParamsFor("ondemand"));
    sys.attachGovernor(gov.get());
    EXPECT_NO_THROW(sys.restoreBytes(bytes));
    EXPECT_EQ(sys.gatedTileCount(), 0u);
    // The governed loop runs from the restored state without tripping
    // any baseline assertion.
    sys.windowTruePowers(sys.options().cyclesPerSample);
    sys.windowTruePowers(sys.options().cyclesPerSample);
}

/** The reverse direction also loads: an ungoverned System skips the
 *  optional sys.governor section (the control-loop state is dropped,
 *  the machine state is intact). */
TEST(CheckpointGoverned, GovernedImageRestoresUngoverned)
{
    SystemFingerprint fp;
    const auto bytes = governedImage("theas", kPrefixWindows, fp);
    sim::System sys(optsFor(true));
    telemetry::TelemetryRecorder rec;
    sys.attachTelemetry(&rec);
    EXPECT_NO_THROW(sys.restoreBytes(bytes));
    EXPECT_EQ(sys.dvfsGovernor(), nullptr);
    EXPECT_EQ(sys.gatedTileCount(), 0u);
}

// ---- restore marker and warm-start semantics -------------------------

TEST(CheckpointTelemetry, RestoreMarkerIsOptIn)
{
    const auto bytes = smallImage();

    sim::System plain(optsFor(true));
    telemetry::TelemetryRecorder plain_rec;
    plain.attachTelemetry(&plain_rec);
    plain.restoreBytes(bytes);
    EXPECT_EQ(plain_rec.find(telemetry::schema::kEventRestore), nullptr);

    sim::System marked(optsFor(true));
    telemetry::TelemetryRecorder marked_rec;
    marked.attachTelemetry(&marked_rec);
    marked.restoreBytes(bytes, /*mark_telemetry_event=*/true);
    ASSERT_NE(marked_rec.find(telemetry::schema::kEventRestore), nullptr);
    EXPECT_EQ(marked_rec.sum(telemetry::schema::kEventRestore), 1.0);
}

TEST(CheckpointWarmStart, ForksMatchEachOtherAndColdRun)
{
    const sim::SystemOptions opts = optsFor(true);
    constexpr std::uint32_t kWarm = 6, kMeasure = 4;

    sim::SweepWarmStart ws = [&] {
        sim::System donor(opts);
        const auto programs = workloads::loadMicrobench(
            donor, workloads::Microbench::HP, 4, 2, 0);
        for (std::uint32_t w = 0; w < kWarm; ++w)
            donor.windowTruePowers(donor.options().cyclesPerSample);
        return sim::SweepWarmStart::capture(donor);
    }();

    auto run_fork = [&] {
        telemetry::TelemetryRecorder rec;
        const auto sys = ws.fork(rec);
        SystemFingerprint fp;
        recordWindows(*sys, kMeasure, fp);
        finishFingerprint(*sys, rec, fp);
        return fp;
    };
    const SystemFingerprint fork1 = run_fork();
    const SystemFingerprint fork2 = run_fork();
    EXPECT_TRUE(fork1 == fork2);

    // Cold flow: re-simulate the prefix, attach after it — the
    // restore re-baselines the deltas to match this exactly.
    sim::System cold(opts);
    const auto programs = workloads::loadMicrobench(
        cold, workloads::Microbench::HP, 4, 2, 0);
    for (std::uint32_t w = 0; w < kWarm; ++w)
        cold.windowTruePowers(cold.options().cyclesPerSample);
    telemetry::TelemetryRecorder rec;
    cold.attachTelemetry(&rec);
    SystemFingerprint cold_fp;
    recordWindows(cold, kMeasure, cold_fp);
    finishFingerprint(cold, rec, cold_fp);
    EXPECT_TRUE(fork1 == cold_fp);
}

TEST(CheckpointWarmStart, FromImageRoundTrips)
{
    sim::System donor(optsFor(true));
    const auto programs = workloads::loadMicrobench(
        donor, workloads::Microbench::Int, 2, 1, 0);
    donor.windowTruePowers(donor.options().cyclesPerSample);
    const sim::SweepWarmStart ws = sim::SweepWarmStart::capture(donor);

    const sim::SweepWarmStart rebuilt =
        sim::SweepWarmStart::fromImage(ws.options(), ws.bytes());
    const auto a = ws.fork();
    const auto b = rebuilt.fork();
    const auto pa =
        a->windowTruePowers(a->options().cyclesPerSample);
    const auto pb =
        b->windowTruePowers(b->options().cyclesPerSample);
    for (std::size_t i = 0; i < pa.size(); ++i)
        EXPECT_EQ(bitsOf(pa[i]), bitsOf(pb[i]));
}

} // namespace
