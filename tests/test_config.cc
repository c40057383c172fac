/**
 * @file
 * Unit tests for the configuration module (Tables I-III) and the
 * kv-file parser that scenario descriptions use.
 */

#include <gtest/gtest.h>

#include "config/kv_file.hh"
#include "config/piton_params.hh"

namespace piton::config
{
namespace
{

TEST(PitonParams, TableIValues)
{
    const PitonParams p;
    EXPECT_EQ(p.process, "IBM 32nm SOI");
    EXPECT_DOUBLE_EQ(p.dieAreaMm2, 36.0);
    EXPECT_GT(p.transistorCount, 460'000'000u - 1);
    EXPECT_DOUBLE_EQ(p.nominalVddV, 1.00);
    EXPECT_DOUBLE_EQ(p.nominalVcsV, 1.05);
    EXPECT_DOUBLE_EQ(p.nominalVioV, 1.80);
    EXPECT_EQ(p.tileCount, 25u);
    EXPECT_EQ(p.meshWidth * p.meshHeight, p.tileCount);
    EXPECT_EQ(p.nocCount, 3u);
    EXPECT_EQ(p.nocWidthBits, 64u);
    EXPECT_EQ(p.threadsPerCore, 2u);
    EXPECT_EQ(p.totalThreads, 50u);
    EXPECT_EQ(p.corePipelineDepth, 6u);
    EXPECT_EQ(p.storeBufferEntries, 8u);
}

TEST(PitonParams, CacheGeometry)
{
    const PitonParams p;
    EXPECT_EQ(p.l1i.sizeBytes, 16u * 1024);
    EXPECT_EQ(p.l1i.associativity, 4u);
    EXPECT_EQ(p.l1i.lineBytes, 32u);
    EXPECT_EQ(p.l1i.numSets(), 128u);
    EXPECT_EQ(p.l1d.sizeBytes, 8u * 1024);
    EXPECT_EQ(p.l1d.lineBytes, 16u);
    EXPECT_EQ(p.l1d.numSets(), 128u);
    EXPECT_EQ(p.l15.sizeBytes, 8u * 1024);
    EXPECT_EQ(p.l2Slice.sizeBytes, 64u * 1024);
    EXPECT_EQ(p.l2Slice.lineBytes, 64u);
    EXPECT_EQ(p.l2Slice.numSets(), 256u);
    // 1.6 MB aggregate L2 (Table I).
    EXPECT_EQ(p.totalL2Bytes(), 1600u * 1024);
}

TEST(PitonParams, TableIIFrequencies)
{
    const SystemFrequencies f;
    EXPECT_DOUBLE_EQ(f.gatewayToPitonMhz, 180.0);
    EXPECT_DOUBLE_EQ(f.chipsetLogicMhz, 280.0);
    EXPECT_DOUBLE_EQ(f.dramPhyMhz, 800.0);
    EXPECT_DOUBLE_EQ(f.dramControllerMhz, 200.0);
    EXPECT_DOUBLE_EQ(f.sdCardSpiMhz, 20.0);
    EXPECT_DOUBLE_EQ(f.uartBps, 115200.0);
}

TEST(PitonParams, TableIIIDefaults)
{
    const MeasurementDefaults d;
    EXPECT_DOUBLE_EQ(d.vddV, 1.00);
    EXPECT_DOUBLE_EQ(d.vcsV, 1.05);
    EXPECT_DOUBLE_EQ(d.vioV, 1.80);
    EXPECT_DOUBLE_EQ(d.coreClockMhz, 500.05);
    EXPECT_EQ(d.monitorSamples, 128u);
    EXPECT_DOUBLE_EQ(d.monitorPollHz, 17.0);
}

TEST(Mesh, CoordinateRoundTrip)
{
    const PitonParams p;
    for (TileId t = 0; t < p.tileCount; ++t) {
        const TileCoord c = tileCoord(p, t);
        EXPECT_EQ(tileIdAt(p, c.x, c.y), t);
    }
}

TEST(Mesh, HopDistances)
{
    const PitonParams p;
    EXPECT_EQ(hopDistance(p, 0, 0), 0u);
    EXPECT_EQ(hopDistance(p, 0, 1), 1u);   // one hop east
    EXPECT_EQ(hopDistance(p, 0, 2), 2u);
    EXPECT_EQ(hopDistance(p, 0, 9), 5u);   // the paper's 5-hop example
    EXPECT_EQ(hopDistance(p, 0, 24), 8u);  // full-chip diagonal
    EXPECT_EQ(hopDistance(p, 24, 0), 8u);  // symmetric
    EXPECT_EQ(hopDistance(p, 12, 12), 0u);
}

TEST(Mesh, MaxHopCountIsEight)
{
    const PitonParams p;
    std::uint32_t max_hops = 0;
    for (TileId a = 0; a < p.tileCount; ++a)
        for (TileId b = 0; b < p.tileCount; ++b)
            max_hops = std::max(max_hops, hopDistance(p, a, b));
    EXPECT_EQ(max_hops, 8u); // "the maximum hop count for a 5x5 mesh"
}

// ---- kv-file parser (scenario descriptions, DESIGN.md §13) ----------

TEST(KvFile, ParsesCommentsCaseAndLastWins)
{
    const KvFile kv = KvFile::parseText(R"(
# full-line comment
Tiles   = 12          # trailing comment
CAP_W   = 2.5         ; alt comment marker
name    = first
name    = second wins

governor = pidcap
)");
    EXPECT_EQ(kv.entries().size(), 5u);
    EXPECT_TRUE(kv.has("tiles")); // keys are lowercased on parse
    EXPECT_EQ(kv.getUint("tiles", 0), 12u);
    EXPECT_DOUBLE_EQ(kv.getDouble("cap_w", 0.0), 2.5);
    EXPECT_EQ(kv.get("name"), "second wins"); // duplicates: last wins
    EXPECT_EQ(kv.get("governor"), "pidcap");
    EXPECT_EQ(kv.get("missing", "def"), "def");
    EXPECT_NO_THROW(kv.checkUnknownKeys("test")); // all consumed above
}

TEST(KvFile, MalformedLinesThrowWithLineNumbers)
{
    EXPECT_THROW(KvFile::parseText("tiles 12"), KvError);   // no '='
    EXPECT_THROW(KvFile::parseText("= 12"), KvError);       // empty key
    EXPECT_THROW(KvFile::parseText("til:es = 12"), KvError); // bad char
    try {
        KvFile::parseText("a = 1\nb 2\n", "f.kv");
        FAIL() << "malformed line accepted";
    } catch (const KvError &e) {
        EXPECT_NE(std::string(e.what()).find("f.kv:2"),
                  std::string::npos);
    }
}

TEST(KvFile, TypedAccessorsRejectBadValues)
{
    const KvFile kv = KvFile::parseText(
        "d = not_a_number\nu = -3\nb = maybe\nok = 7\n"
        "nan = nan\ninf = inf\nneg_inf = -inf\nhuge = 1e400\n"
        "wide = 4294967297\nmax32 = 4294967295\n");
    EXPECT_THROW(kv.getDouble("d", 0.0), KvError);
    EXPECT_THROW(kv.getDouble("nan", 0.0), KvError);
    EXPECT_THROW(kv.getDouble("inf", 0.0), KvError);
    EXPECT_THROW(kv.getDouble("neg_inf", 0.0), KvError);
    EXPECT_THROW(kv.getDouble("huge", 0.0), KvError);
    EXPECT_THROW(kv.getUint("u", 0), KvError);
    EXPECT_EQ(kv.getUint("wide", 0), 4294967297u);
    EXPECT_THROW(kv.getUint32("wide", 0), KvError); // not 1
    EXPECT_EQ(kv.getUint32("max32", 0), 4294967295u);
    EXPECT_THROW(kv.getBool("b", false), KvError);
    EXPECT_EQ(kv.getUint("ok", 0), 7u);
    EXPECT_TRUE(KvFile::parseText("x = yes").getBool("x", false));
    EXPECT_FALSE(KvFile::parseText("x = off").getBool("x", true));
}

TEST(KvFile, UnknownKeysAreReportedNotIgnored)
{
    const KvFile kv =
        KvFile::parseText("tiles = 5\nworkloda = int\n");
    (void)kv.getUint("tiles", 0);
    const auto unknown = kv.unconsumedKeys();
    ASSERT_EQ(unknown.size(), 1u);
    EXPECT_EQ(unknown[0], "workloda");
    try {
        kv.checkUnknownKeys("scenario");
        FAIL() << "unknown key accepted";
    } catch (const KvError &e) {
        EXPECT_NE(std::string(e.what()).find("workloda"),
                  std::string::npos);
    }
}

TEST(KvFile, MissingFileThrows)
{
    EXPECT_THROW(KvFile::parseFile("/nonexistent/piton.kv"), KvError);
}

} // namespace
} // namespace piton::config
