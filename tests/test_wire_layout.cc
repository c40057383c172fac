/**
 * @file
 * Byte-layout pins for every wire message, the frame header, the result
 * cache's disk entry and a checkpoint image.  Cache keys, peers built
 * from other sources and stored checkpoints all depend on these bytes,
 * so any reordering, resizing or dropped field shows up here as a hex
 * diff instead of a silent cache-key or cross-version break.  A
 * deliberate layout change bumps kWireVersion, kResultFormatVersion or
 * ckpt::kFormatVersion and re-records these strings in the same change.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checkpoint/archive.hh"
#include "common/hash.hh"
#include "service/cache.hh"
#include "service/request.hh"
#include "service/response.hh"
#include "service/scheduler.hh"
#include "service/wire.hh"
#include "sim/system.hh"
#include "workloads/microbenchmarks.hh"

namespace
{

using namespace piton;
using namespace piton::service;

std::string
hexOf(const std::vector<std::uint8_t> &bytes)
{
    static const char *digits = "0123456789abcdef";
    std::string s;
    for (const std::uint8_t b : bytes) {
        s += digits[b >> 4];
        s += digits[b & 0xF];
    }
    return s;
}

/** A request of `kind` with every field away from its default, so each
 *  one lands somewhere in the encoding. */
ExperimentRequest
fullRequest(Kind kind)
{
    ExperimentRequest req;
    req.kind = kind;
    req.vddV = 0.95;
    req.vcsV = 1.025;
    req.vioV = 1.75;
    req.coreClockMhz = 450.5;
    req.chipId = 3;
    req.seed = 0x1234567;
    req.cyclesPerSample = 1500;
    req.warmupCycles = 12000;
    req.workload.bench =
        static_cast<std::uint16_t>(workloads::Microbench::HP);
    req.workload.cores = 4;
    req.workload.threadsPerCore = 2;
    req.workload.iterations = 300;
    req.workload.totalElements = 2048;
    req.samples = 24;
    req.maxCycles = 9'000'000;
    req.tails = {{0.5, 4}, {0.25, 8}};
    req.voltages = {0.9, 1.05};
    req.placement = {3, 7, 12};
    req.tileFreqSteps = {2, 5, 9};
    req.sampledSlices = 4;
    req.sampledIntervalInsns = 5000;
    req.deadlineMs = 250;
    return req;
}

RailStatsWire
rail(double base)
{
    return {17, base, base / 10, base - 0.25, base + 0.5};
}

/** A response of `kind` with every result section filled (the body
 *  encodes only the kind's own section). */
ExperimentResponse
fullResponse(Kind kind)
{
    ExperimentResponse resp;
    resp.kind = kind;
    resp.measure = {rail(1.5), rail(0.25), rail(0.125), rail(2.0), 41.5};
    resp.energy = {1,   0,   123456, 0.0025, 98765, 0.75,
                   0.5, 0.25, 1,     0.01,   0.002, 0.125};
    resp.points = {{1.0, rail(2.5), 55.25}, {0.5, rail(2.75), 61.0}};
    resp.vfPoints = {{0.9, 480.5, 475.0, 0, 38.5},
                     {1.2, 712.25, 700.0, 1, 71.0}};
    return resp;
}

CacheStats
cacheStats(std::uint64_t base)
{
    CacheStats s;
    s.hits = base + 1;
    s.misses = base + 2;
    s.coalesced = base + 3;
    s.evictions = base + 4;
    s.corruptRejected = base + 5;
    s.diskHits = base + 6;
    s.entries = base + 7;
    s.bytes = base + 8;
    return s;
}

SchedulerMetrics
metrics()
{
    SchedulerMetrics m;
    m.submitted = 101;
    m.completed = 99;
    m.shed = 2;
    m.errors = 3;
    m.cancelled = 4;
    m.deadlineExpired = 5;
    m.cacheHits = 60;
    m.queueDepth = 7;
    m.hitRate = 60.0 / 99.0;
    m.latencyP50Ms = 0.125;
    m.latencyP99Ms = 8.5;
    m.resultCache = cacheStats(10);
    m.prefixCache = cacheStats(20);
    return m;
}

constexpr Kind kAllKinds[] = {Kind::MeasurePower, Kind::MeasureStatic,
                              Kind::EnergyRun,    Kind::Sweep,
                              Kind::VfCurve,      Kind::PlacedRun};

/** Every pinned layout, by name: encoded bytes as hex, or a digest
 *  where the bytes are too long to spell out. */
std::vector<std::pair<std::string, std::string>>
layouts()
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const Kind k : kAllKinds) {
        const std::string name = kindName(k);
        const ExperimentRequest req = fullRequest(k);
        WireWriter w;
        req.encode(w);
        out.emplace_back("request " + name, hexOf(w.bytes()));
        out.emplace_back("canonical " + name, hexOf(req.canonicalBytes()));
        out.emplace_back("cache key " + name, req.cacheKey().hex());
        out.emplace_back("prefix key " + name, req.prefixKey().hex());
        out.emplace_back("response " + name,
                         hexOf(fullResponse(k).encodeBody()));
    }
    const std::vector<std::uint8_t> failure =
        ExperimentResponse::failure(Status::DeadlineExpired, Kind::Sweep,
                                    "deadline expired")
            .encodeBody();
    out.emplace_back("failure", hexOf(failure));
    out.emplace_back("envelope",
                     hexOf(encodeResponseEnvelope(true, failure)));
    out.emplace_back("metrics", hexOf(encodeMetrics(metrics())));
    WorkerStats ws;
    ws.workerId = "node-7";
    ws.threads = 3;
    ws.metrics = metrics();
    out.emplace_back("worker stats", hexOf(encodeWorkerStats(ws)));
    VersionInfo vi;
    vi.serverVersion = 6;
    vi.clientVersion = 5;
    vi.message = "upgrade";
    out.emplace_back("version error", hexOf(encodeVersionError(vi)));
    Frame f;
    f.type = FrameType::StatsReply;
    f.requestId = 0x0102030405060708ULL;
    f.payload = {9, 8, 7};
    out.emplace_back("frame", hexOf(encodeFrame(f)));
    out.emplace_back("frame v5", hexOf(encodeFrame(f, 5)));

    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "piton_layout_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    {
        CacheConfig cfg;
        cfg.diskDir = dir.string();
        ResultCache cache(cfg);
        const Hash128 key = fullRequest(Kind::EnergyRun).cacheKey();
        cache.insert(key, std::make_shared<const std::vector<std::uint8_t>>(
                              failure));
        out.emplace_back("disk entry",
                         hexOf(ckpt::readFile(cache.diskPathFor(key))));
    }
    std::filesystem::remove_all(dir);

    sim::System sys;
    const auto programs =
        workloads::loadMicrobench(sys, workloads::Microbench::Int, 2, 2, 0);
    for (int i = 0; i < 2; ++i)
        sys.windowTruePowers(sys.options().cyclesPerSample);
    const std::vector<std::uint8_t> image = sys.saveBytes();
    Hasher h;
    h.update(image);
    out.emplace_back("system image",
                     std::to_string(image.size()) + " " + h.digest().hex());
    return out;
}

/** Each layout as wire v6, result format v2 and checkpoint v6 write
 *  it. */
const std::map<std::string, std::string> kPinned = {
    {"request measure-power",
     "0000666666666666ee3f666666666666f03f000000000000fc3f000000000028"
     "7c40030000006745230100000000dc05000000000000e02e0000000000000100"
     "04000000020000002c0100000000000000080000000000001800000040548900"
     "0000000002000000000000000000e03f04000000000000000000d03f08000000"
     "02000000cdccccccccccec3fcdccccccccccf03f0300030007000c0003000200"
     "05000900040000008813000000000000fa000000"},
    {"canonical measure-power",
     "0000666666666666ee3f666666666666f03f000000000000fc3f000000000028"
     "7c40030000006745230100000000dc05000000000000e02e0000000000000100"
     "0400000002000000000000000000000000080000000000001800000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"},
    {"cache key measure-power",
     "bf4ae24c3c195ca8769db4da71e2a973"},
    {"prefix key measure-power",
     "39d19418fc397c78a789504e70e2e0e2"},
    {"response measure-power",
     "00000000000000001100000000000000000000000000f83f333333333333c33f"
     "000000000000f43f00000000000000401100000000000000000000000000d03f"
     "9a9999999999993f0000000000000000000000000000e83f1100000000000000"
     "000000000000c03f9a9999999999893f000000000000c0bf000000000000e43f"
     "110000000000000000000000000000409a9999999999c93f000000000000fc3f"
     "00000000000004400000000000c04440"},
    {"request measure-static",
     "0100666666666666ee3f666666666666f03f000000000000fc3f000000000028"
     "7c40030000006745230100000000dc05000000000000e02e0000000000000100"
     "04000000020000002c0100000000000000080000000000001800000040548900"
     "0000000002000000000000000000e03f04000000000000000000d03f08000000"
     "02000000cdccccccccccec3fcdccccccccccf03f0300030007000c0003000200"
     "05000900040000008813000000000000fa000000"},
    {"canonical measure-static",
     "0100666666666666ee3f666666666666f03f000000000000fc3f000000000028"
     "7c40030000006745230100000000dc0500000000000000000000000000000000"
     "0100000001000000000000000000000000000000000000001800000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"},
    {"cache key measure-static",
     "8792484a2ae2dc8d67e0b544f1701dfb"},
    {"prefix key measure-static",
     "6c2a11ffa8f5804f38ff26f4dfb57ceb"},
    {"response measure-static",
     "00000100000000001100000000000000000000000000f83f333333333333c33f"
     "000000000000f43f00000000000000401100000000000000000000000000d03f"
     "9a9999999999993f0000000000000000000000000000e83f1100000000000000"
     "000000000000c03f9a9999999999893f000000000000c0bf000000000000e43f"
     "110000000000000000000000000000409a9999999999c93f000000000000fc3f"
     "00000000000004400000000000c04440"},
    {"request energy-run",
     "0200666666666666ee3f666666666666f03f000000000000fc3f000000000028"
     "7c40030000006745230100000000dc05000000000000e02e0000000000000100"
     "04000000020000002c0100000000000000080000000000001800000040548900"
     "0000000002000000000000000000e03f04000000000000000000d03f08000000"
     "02000000cdccccccccccec3fcdccccccccccf03f0300030007000c0003000200"
     "05000900040000008813000000000000fa000000"},
    {"canonical energy-run",
     "0200666666666666ee3f666666666666f03f000000000000fc3f000000000028"
     "7c40030000006745230100000000dc05000000000000e02e0000000000000100"
     "04000000020000002c0100000000000000080000000000000000000040548900"
     "0000000000000000000000000000000004000000881300000000000000000000"},
    {"cache key energy-run",
     "8c822218c64f4526dd23e37a5e48174e"},
    {"prefix key energy-run",
     "0ce84904fd13721d643a57d5330bca21"},
    {"response energy-run",
     "0000020000000000010040e20100000000007b14ae47e17a643fcd8101000000"
     "0000000000000000e83f000000000000e03f000000000000d03f017b14ae47e1"
     "7a843ffca9f1d24d62603f000000000000c03f"},
    {"request sweep",
     "0300666666666666ee3f666666666666f03f000000000000fc3f000000000028"
     "7c40030000006745230100000000dc05000000000000e02e0000000000000100"
     "04000000020000002c0100000000000000080000000000001800000040548900"
     "0000000002000000000000000000e03f04000000000000000000d03f08000000"
     "02000000cdccccccccccec3fcdccccccccccf03f0300030007000c0003000200"
     "05000900040000008813000000000000fa000000"},
    {"canonical sweep",
     "0300666666666666ee3f666666666666f03f000000000000fc3f000000000028"
     "7c40030000006745230100000000dc05000000000000e02e0000000000000100"
     "0400000002000000000000000000000000080000000000000000000000000000"
     "0000000002000000000000000000e03f04000000000000000000d03f08000000"
     "000000000000000000000000000000000000000000000000"},
    {"cache key sweep",
     "ee09213b2001385ce07a1b54b7a048ce"},
    {"prefix key sweep",
     "39d19418fc397c78a789504e70e2e0e2"},
    {"response sweep",
     "000003000000000002000000000000000000f03f110000000000000000000000"
     "00000440000000000000d03f0000000000000240000000000000084000000000"
     "00a04b40000000000000e03f110000000000000000000000000006409a999999"
     "9999d13f00000000000004400000000000000a400000000000804e40"},
    {"request vf-curve",
     "0400666666666666ee3f666666666666f03f000000000000fc3f000000000028"
     "7c40030000006745230100000000dc05000000000000e02e0000000000000100"
     "04000000020000002c0100000000000000080000000000001800000040548900"
     "0000000002000000000000000000e03f04000000000000000000d03f08000000"
     "02000000cdccccccccccec3fcdccccccccccf03f0300030007000c0003000200"
     "05000900040000008813000000000000fa000000"},
    {"canonical vf-curve",
     "0400000000000000000000000000000000000000000000000000000000000000"
     "0000030000000000000000000000010000000000000000000000000000000000"
     "0100000001000000000000000000000000000000000000000000000000000000"
     "000000000000000002000000cdccccccccccec3fcdccccccccccf03f00000000"
     "00000000000000000000000000000000"},
    {"cache key vf-curve",
     "991d7639fa4158033fd9e98a1fba7021"},
    {"prefix key vf-curve",
     "da5eb6f25e10be81d11b87839e811792"},
    {"response vf-curve",
     "000004000000000002000000cdccccccccccec3f0000000000087e4000000000"
     "00b07d40000000000000404340333333333333f33f0000000000428640000000"
     "0000e08540010000000000c05140"},
    {"request placed-run",
     "0500666666666666ee3f666666666666f03f000000000000fc3f000000000028"
     "7c40030000006745230100000000dc05000000000000e02e0000000000000100"
     "04000000020000002c0100000000000000080000000000001800000040548900"
     "0000000002000000000000000000e03f04000000000000000000d03f08000000"
     "02000000cdccccccccccec3fcdccccccccccf03f0300030007000c0003000200"
     "05000900040000008813000000000000fa000000"},
    {"canonical placed-run",
     "0500666666666666ee3f666666666666f03f000000000000fc3f000000000028"
     "7c40030000006745230100000000dc05000000000000e02e0000000000000100"
     "03000000020000002c0100000000000000080000000000000000000040548900"
     "0000000000000000000000000300030007000c00030002000500090004000000"
     "881300000000000000000000"},
    {"cache key placed-run",
     "2eda8fc943a3898cab461e7d54fa5bc4"},
    {"prefix key placed-run",
     "d11af580401ac1adab62b2935cafe566"},
    {"response placed-run",
     "0000050000000000010040e20100000000007b14ae47e17a643fcd8101000000"
     "0000000000000000e83f000000000000e03f000000000000d03f017b14ae47e1"
     "7a843ffca9f1d24d62603f000000000000c03f"},
    {"failure",
     "0300030010000000646561646c696e65206578706972656400000000"},
    {"envelope",
     "011c0000000300030010000000646561646c696e652065787069726564000000"
     "00"},
    {"metrics",
     "6500000000000000630000000000000002000000000000000300000000000000"
     "040000000000000005000000000000003c000000000000000700000000000000"
     "65934d36d964e33f000000000000c03f00000000000021400b00000000000000"
     "0c000000000000000d000000000000000e000000000000000f00000000000000"
     "1000000000000000110000000000000012000000000000001500000000000000"
     "1600000000000000170000000000000018000000000000001900000000000000"
     "1a000000000000001b000000000000001c00000000000000"},
    {"worker stats",
     "060000006e6f64652d3703000000d80000006500000000000000630000000000"
     "0000020000000000000003000000000000000400000000000000050000000000"
     "00003c00000000000000070000000000000065934d36d964e33f000000000000"
     "c03f00000000000021400b000000000000000c000000000000000d0000000000"
     "00000e000000000000000f000000000000001000000000000000110000000000"
     "0000120000000000000015000000000000001600000000000000170000000000"
     "0000180000000000000019000000000000001a000000000000001b0000000000"
     "00001c00000000000000"},
    {"version error",
     "060005000700000075706772616465"},
    {"frame",
     "505352560600070008070605040302010300000036fd2da6090807"},
    {"frame v5",
     "505352560500070008070605040302010300000036fd2da6090807"},
    {"disk entry",
     "50435245538deb611c0000000300030010000000646561646c696e6520657870"
     "6972656400000000"},
    {"system image",
     "41475 961e8b7550a9044c08690dc713400651"},
};

TEST(WireLayout, EveryLayoutMatchesItsRecordedBytes)
{
    const auto got = layouts();
    EXPECT_EQ(got.size(), kPinned.size());
    for (const auto &[name, hex] : got) {
        const auto it = kPinned.find(name);
        ASSERT_NE(it, kPinned.end()) << name;
        EXPECT_EQ(hex, it->second) << name;
    }
}

} // namespace
